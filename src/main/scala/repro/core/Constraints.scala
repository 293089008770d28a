package repro.core

/** GetConstraints (§ V-A): alive-sets that become the MKP's capacity rows.
  *
  * For execution order τ, the alive-set of position/node v_i is
  *   V_i = { v_j | τ(j) ≤ τ(i) ≤ max_{(v_j,v_k)∈E} τ(k), v_j ∉ V_exclude }
  * — the candidate nodes that, if flagged, would be resident in memory
  * while v_i executes. Each surviving V_i yields one knapsack constraint
  * Σ_{j∈V_i} x_j·s_j ≤ M.
  */
object Constraints {

  /** V_exclude: nodes never worth evaluating in the MKP —
    * oversized (s_i > M: infeasible alone) or useless (t_i = 0).
    */
  def excluded(dag: Dag, memoryBudget: Long): Set[Int] =
    (0 until dag.n).filter(i => dag.size(i) > memoryBudget || dag.speedup(i) == 0.0).toSet

  /** All alive-sets under `order`, one per execution position, with
    * excluded nodes removed: position k's set holds every candidate whose
    * [[Plan.residency]] span covers k.
    */
  def aliveSets(dag: Dag, order: Vector[Int], exclude: Set[Int]): Vector[Set[Int]] = {
    val r = Plan.residency(dag, order)
    val sets = Vector.fill(dag.n)(Set.newBuilder[Int])
    (0 until dag.n).filterNot(exclude).foreach(j => r.span(j).foreach(k => sets(k) += j))
    sets.map(_.result())
  }

  /** Relevant constraint sets: distinct, maximal (not a strict subset of
    * another) and non-trivial (their total size can exceed the budget).
    */
  def constraintSets(dag: Dag, order: Vector[Int], memoryBudget: Long): Vector[Set[Int]] = {
    val exclude  = excluded(dag, memoryBudget)
    val distinct = aliveSets(dag, order, exclude).distinct.filter(_.nonEmpty)
    val maximal  = distinct.filterNot(s => distinct.exists(o => s != o && s.subsetOf(o)))
    maximal.filter(_.toSeq.map(dag.size).sum > memoryBudget)
  }
}
