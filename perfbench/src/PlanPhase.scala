package perfbench

import repro.core.{AlternatingOpt, Constraints, Dag, Plan}

/** Optimizer timing and the `core` layer split.
  *
  * The untraced path calls `AlternatingOpt.solve` with S/C's solvers as
  * they are. The traced path passes wrappers of the same two `Solvers`
  * functions that time each call, and calls `Constraints.constraintSets`
  * on the order the node selector received to count constraint rows and
  * MKP items; the wrappers' own bookkeeping is subtracted from solve time.
  */
object PlanPhase {

  /** One untraced solve: its plan, wall milliseconds and feasibility. */
  final case class Outcome(plan: Plan, ms: Double, feasible: Boolean)

  /** Per-solve core split (milliseconds and counts). */
  final case class CoreTrace(solveMs: Double, nodesMs: Double, constraintsMs: Double,
                             orderMs: Double, iterations: Int, constraintRows: Int,
                             mkpItems: Int, flagged: Int, budgetUse: Double) {
    def otherMs: Double = solveMs - nodesMs - orderMs
  }

  private val probeRows: Vector[Vector[Long]] =
    Vector.tabulate(40, 80)((x, y) => ((x * 31 + y * 17) % 97).toLong)
  @volatile private var probeSink = 0L // keeps the JIT from dropping the probe loop

  /** Host-speed probe: a fixed loop over boxed `Vector` rows, like MKP's
    * weight lookups, that no change to the program can speed up. Returns
    * its wall milliseconds; `Settings.probeNominalMs` is its time at full
    * host speed.
    */
  def probe(): Double = {
    val t0 = System.nanoTime()
    var acc = 0L
    var rep = 0
    while (rep < 10) {
      var x = 0
      while (x < probeRows.size) {
        val row = probeRows(x)
        var y = 0
        while (y < row.size) { val w = row(y); if (w > acc % 50) acc += w else acc -= 1; y += 1 }
        x += 1
      }
      rep += 1
    }
    probeSink = acc
    (System.nanoTime() - t0) / 1e6
  }

  def feasible(dag: Dag, plan: Plan, budget: Long): Boolean =
    dag.isTopological(plan.order) && Plan.peakMemoryUsage(dag, plan) <= budget

  def solve(dag: Dag, budget: Long): Outcome = {
    val t0 = System.nanoTime()
    val plan = AlternatingOpt.solve(dag, budget).plan
    val ms = (System.nanoTime() - t0) / 1e6
    Outcome(plan, ms, feasible(dag, plan, budget))
  }

  def solveTraced(dag: Dag, budget: Long): (Plan, CoreTrace) = {
    val sc = AlternatingOpt.scSolvers
    var nodesNs, orderNs, constraintsNs, bookkeepingNs = 0L
    var rows, items = 0
    val nodes = (d: Dag, m: Long, order: Vector[Int]) => {
      val t0 = System.nanoTime()
      val u = sc.nodes(d, m, order)
      val t1 = System.nanoTime()
      val sets = Constraints.constraintSets(d, order, m)
      val t2 = System.nanoTime()
      rows += sets.size
      items += sets.flatten.distinct.size
      nodesNs += t1 - t0
      constraintsNs += t2 - t1
      bookkeepingNs += System.nanoTime() - t1
      u
    }
    val order = (d: Dag, u: Set[Int]) => {
      val t0 = System.nanoTime()
      val o = sc.order(d, u)
      orderNs += System.nanoTime() - t0
      o
    }
    val t0 = System.nanoTime()
    val result = AlternatingOpt.solve(dag, budget, AlternatingOpt.Solvers(nodes, order))
    val solveNs = System.nanoTime() - t0 - bookkeepingNs
    val plan = result.plan
    val peak = Plan.peakMemoryUsage(dag, plan)
    (plan, CoreTrace(solveNs / 1e6, nodesNs / 1e6, constraintsNs / 1e6, orderNs / 1e6,
      result.iterations, rows, items, plan.flagged.size, peak.toDouble / budget))
  }

  /** Means per solve of the traces, as `core.*` metrics. */
  def report(traces: Seq[CoreTrace], out: Metrics): Unit = {
    def mean(f: CoreTrace => Double): Double = traces.map(f).sum / traces.size
    out.put("core.solve_ms", mean(_.solveMs), "ms")
    out.put("core.nodes_ms", mean(_.nodesMs), "ms")
    out.put("core.constraints_ms", mean(_.constraintsMs), "ms")
    out.put("core.order_ms", mean(_.orderMs), "ms")
    out.put("core.other_ms", mean(_.otherMs), "ms")
    out.put("core.iterations", mean(_.iterations), "count")
    out.put("core.constraint_rows", mean(_.constraintRows), "count")
    out.put("core.mkp_items", mean(_.mkpItems), "count")
    out.put("core.flagged", mean(_.flagged), "count")
    out.put("core.budget_use", mean(_.budgetUse), "ratio")
  }
}
