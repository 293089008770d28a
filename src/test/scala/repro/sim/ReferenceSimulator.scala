package repro.sim

import repro.core.{Dag, Plan}
import repro.exec.NfsModel
import repro.sim.Simulator.{Inputs, Report}

/** `Simulator.simulate` as it was before its memory peak was derived from
  * `Plan.residency`, kept verbatim as the reference the current simulator's
  * time fields are compared against. The only change is that its memory
  * peak, which the simulator no longer reports, is removed.
  */
object ReferenceSimulator {

  def simulate(dag: Dag, plan: Plan, cost: NfsModel, in: Inputs): Report = {
    require(dag.isTopological(plan.order), "simulate requires a topological order")
    require(in.sizes.size == dag.n && in.computeMs.size == dag.n && in.baseReadBytes.size == dag.n)

    var t = 0.0          // foreground clock
    var bgFree = 0.0     // background materialization channel availability
    val execEnd = Array.ofDim[Double](dag.n)
    var readTotal, computeTotal, writeTotal = 0.0

    plan.order.foreach { i =>
      val parentRead = dag.parents(i).map { p =>
        if (plan.flagged(p)) cost.memMs(in.sizes(p)) else cost.readMs(in.sizes(p))
      }.sum
      val read = parentRead + cost.readMs(in.baseReadBytes(i))
      val compute = in.computeMs(i)
      readTotal += read
      computeTotal += compute
      val w = cost.writeMs(in.sizes(i))
      writeTotal += w // a flagged node's write happens too, off the critical path
      if (plan.flagged(i)) {
        t += read + compute + cost.memMs(in.sizes(i)) + in.memCreateMs
        execEnd(i) = t
        bgFree = math.max(t, bgFree) + w
      } else {
        t += read + compute + w
        execEnd(i) = t
      }
    }

    val endToEnd = math.max(t, bgFree)

    Report(endToEnd, readTotal, computeTotal, writeTotal, plan.order.map(execEnd).toVector)
  }
}
