package repro.core

/** Algorithm 1 — SimplifiedMKP: the node selector of S/C Opt Nodes.
  *
  * Given an execution order τ it (1) excludes oversized / zero-score nodes,
  * (2) builds the maximal non-trivial alive-set constraints, (3) solves the
  * resulting 0-1 MKP with [[MkpSolver.search]], whose selection is optimal
  * when the search finishes under its 200k-node cap and otherwise the best
  * set found within it, and (4) trivially flags every non-excluded
  * node that appears in no kept constraint set (flagging those can never
  * violate the budget — every coexistence instant is covered by some
  * alive-set, and all sets containing only such nodes are trivial).
  */
object SimplifiedMkp {

  /** Flagged set U maximizing Σ t_i feasibly under `order` and the budget. */
  def solve(dag: Dag, memoryBudget: Long, order: Vector[Int]): Set[Int] = {
    require(dag.isTopological(order), "SimplifiedMKP requires a topological order")
    val exclude = Constraints.excluded(dag, memoryBudget)
    val mkp     = instance(dag, memoryBudget, order)
    val chosen  = MkpSolver.search(mkp.profits, mkp.first, mkp.last, mkp.weights, memoryBudget,
      mkp.rows).selected.map(mkp.nodes(_))

    // Algorithm 1 line 9: nodes outside every kept constraint set and not
    // excluded are flagged for free.
    val inMkp = mkp.nodes.toSet
    val free = (0 until dag.n).filter(i => !inMkp(i) && !exclude(i)).toSet
    chosen ++ free
  }

  /** The MKP of Algorithm 1 under `order`: item y is node `nodes(y)`, one of
    * the nodes in any kept constraint set (ascending), and each of the
    * `rows` kept sets is one row with capacity `memoryBudget`. Item y weighs
    * its node's size, `weights(y)`, in rows [first(y), last(y)] and nothing
    * elsewhere: the rows follow execution order and a node is alive over
    * one span of positions.
    */
  private[core] final case class Instance(nodes: Vector[Int], profits: Vector[Double],
                                          first: Vector[Int], last: Vector[Int],
                                          weights: Vector[Long], rows: Int)

  private[core] def instance(dag: Dag, memoryBudget: Long, order: Vector[Int]): Instance = {
    val (rows, rowsOf) = Constraints.constraintRows(dag, order, memoryBudget)
    val nodes = rowsOf.indices.filter(rowsOf(_).nonEmpty).toVector
    Instance(nodes, nodes.map(dag.speedup), nodes.map(rowsOf(_).start), nodes.map(rowsOf(_).last),
      nodes.map(dag.size), rows)
  }
}
