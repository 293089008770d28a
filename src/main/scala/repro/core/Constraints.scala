package repro.core

/** GetConstraints (§ V-A): alive-sets that become the MKP's capacity rows.
  *
  * For execution order τ, the alive-set of position/node v_i is
  *   V_i = { v_j | τ(j) ≤ τ(i) ≤ max_{(v_j,v_k)∈E} τ(k), v_j ∉ V_exclude }
  * — the candidate nodes that, if flagged, would be resident in memory
  * while v_i executes. Each surviving V_i yields one knapsack constraint
  * Σ_{j∈V_i} x_j·s_j ≤ M.
  *
  * Candidate j is alive exactly over its [[Plan.residency]] span, so the
  * kept sets and each candidate's place in them are read off the spans'
  * endpoints, in interval form, without building the sets.
  */
object Constraints {

  /** V_exclude: nodes never worth evaluating in the MKP —
    * oversized (s_i > M: infeasible alone) or useless (t_i = 0).
    */
  def excluded(dag: Dag, memoryBudget: Long): Set[Int] =
    (0 until dag.n).filter(i => dag.size(i) > memoryBudget || dag.speedup(i) == 0.0).toSet

  /** Relevant constraint sets: distinct, maximal (not a strict subset of
    * another) and non-trivial (their total size can exceed the budget).
    * Kept in the order of the first position holding each.
    */
  def constraintSets(dag: Dag, order: Vector[Int], memoryBudget: Long): Vector[Set[Int]] = {
    val (rows, rowsOf) = constraintRows(dag, order, memoryBudget)
    val sets = Vector.fill(rows)(Set.newBuilder[Int])
    rowsOf.indices.foreach(j => rowsOf(j).foreach(r => sets(r) += j))
    sets.map(_.result())
  }

  /** [[constraintSets]] in interval form, in O(n + E): the number of kept
    * rows and, per node j, the range of kept rows holding j (empty when j
    * is excluded or in no kept set).
    *
    * Between two consecutive candidate starts the alive-set only shrinks,
    * so every maximal set is the alive-set at a start position p. It is
    * maximal, and p is the first position holding it, exactly when some
    * candidate's span ends at p or later but before the next start; it is
    * kept when its bytes exceed the budget. Rows follow execution order, so
    * the kept rows inside a candidate's span are one range.
    */
  private[core] def constraintRows(dag: Dag, order: Vector[Int],
                                   memoryBudget: Long): (Int, Vector[Range]) = {
    val n = dag.n
    val r = Plan.residency(dag, order)
    val exclude = excluded(dag, memoryBudget)
    val diff = new Array[Long](n + 1) // alive bytes, as a difference array over positions
    val ends = new Array[Boolean](n)  // some candidate's span ends here
    (0 until n).filterNot(exclude).foreach { j =>
      diff(r.start(j)) += dag.size(j)
      diff(r.end(j) + 1) -= dag.size(j)
      ends(r.end(j)) = true
    }
    val kept = new Array[Boolean](n)
    var alive = 0L
    var open = -1 // the latest start with no end since
    var openBytes = 0L
    var k = 0
    while (k < n) {
      alive += diff(k)
      if (!exclude(order(k))) { open = k; openBytes = alive }
      if (ends(k) && open >= 0) { kept(open) = openBytes > memoryBudget; open = -1 }
      k += 1
    }
    // before(k): the number of kept rows at positions < k.
    val before = (0 until n).scanLeft(0)((c, p) => if (kept(p)) c + 1 else c)
    (before(n), Vector.tabulate(n)(j =>
      if (exclude(j)) 0 until 0 else before(r.start(j)) until before(r.end(j) + 1)))
  }
}
