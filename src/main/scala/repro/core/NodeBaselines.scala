package repro.core

import scala.util.Random

/** Baseline flag-selection methods for S/C Opt Nodes (§ VI-A).
  *
  * Each iterates over candidate nodes in some priority order and flags a
  * node iff it is not in V_exclude ([[Constraints.excluded]]) and flagging
  * it keeps the plan feasible (peak Memory-Catalog usage ≤ budget under the
  * given execution order).
  */
object NodeBaselines {

  private def selectBy(dag: Dag, memoryBudget: Long, order: Vector[Int],
                       visit: Seq[Int]): Set[Int] = {
    val r = Plan.residency(dag, order)
    val exclude = Constraints.excluded(dag, memoryBudget)
    val usage = new Array[Long](dag.n) // bytes held at each position so far
    var flagged = Set.empty[Int]
    visit.foreach { i =>
      val s = dag.size(i)
      if (!exclude(i) && r.span(i).forall(k => usage(k) + s <= memoryBudget)) {
        r.span(i).foreach(k => usage(k) += s)
        flagged += i
      }
    }
    flagged
  }

  /** Greedy: visit nodes in execution order; flag when it still fits. */
  def greedy(dag: Dag, memoryBudget: Long, order: Vector[Int]): Set[Int] =
    selectBy(dag, memoryBudget, order, order)

  /** Random: visit nodes in random order; flag when it still fits. */
  def random(dag: Dag, memoryBudget: Long, order: Vector[Int], seed: Long): Set[Int] =
    selectBy(dag, memoryBudget, order, new Random(seed).shuffle((0 until dag.n).toList))

  /** Ratio-based selection [Xin et al.]: highest speedup/size ratio first. */
  def ratio(dag: Dag, memoryBudget: Long, order: Vector[Int]): Set[Int] =
    selectBy(dag, memoryBudget, order,
      (0 until dag.n).sortBy(i => -dag.speedup(i) / math.max(1L, dag.size(i)).toDouble))
}
