package repro.sim

import repro.core.{Dag, Plan}
import repro.exec.NfsModel
import repro.sim.Simulator.{Inputs, Report}

/** `Simulator.simulate` as it was before its memory peak was derived from
  * `Plan.residency`, kept verbatim as the reference the current simulator
  * is compared against. The only change is that the node → position map
  * is built inline instead of read from the removed `Plan.rank`.
  */
object ReferenceSimulator {

  def simulate(dag: Dag, plan: Plan, cost: NfsModel, in: Inputs): Report = {
    require(dag.isTopological(plan.order), "simulate requires a topological order")
    require(in.sizes.size == dag.n && in.computeMs.size == dag.n && in.baseReadBytes.size == dag.n)

    val rank = plan.order.zipWithIndex.toMap
    var t = 0.0          // foreground clock
    var bgFree = 0.0     // background materialization channel availability
    val execEnd = Array.ofDim[Double](dag.n)
    val bgEnd = Array.ofDim[Double](dag.n) // flagged-node materialization end
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
        bgEnd(i) = bgFree
      } else {
        t += read + compute + w
        execEnd(i) = t
      }
    }

    val endToEnd = math.max(t, bgFree)

    // Peak Memory-Catalog bytes over continuous time: a flagged node is
    // resident from its execution end until max(last child exec end, its
    // own background-write end). Sample at every event boundary.
    val flagged = plan.flagged.toVector.sortBy(rank)
    val residentUntil = flagged.map { j =>
      val lastChild = dag.children(j).map(execEnd).foldLeft(0.0)(math.max)
      j -> math.max(math.max(lastChild, bgEnd(j)), execEnd(j))
    }.toMap
    val events = (flagged.map(execEnd(_)) ++ flagged.map(residentUntil)).distinct.sorted
    val peak = events.map { e =>
      flagged.filter(j => execEnd(j) <= e && e < residentUntil(j)).map(in.sizes(_)).sum
    }.foldLeft(0L)(math.max)

    Report(endToEnd, readTotal, computeTotal, writeTotal, peak, plan.order.map(execEnd).toVector)
  }
}
