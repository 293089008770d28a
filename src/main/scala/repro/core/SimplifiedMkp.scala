package repro.core

/** Algorithm 1 — SimplifiedMKP: the exact solution to S/C Opt Nodes.
  *
  * Given an execution order τ it (1) excludes oversized / zero-score nodes,
  * (2) builds the maximal non-trivial alive-set constraints, (3) solves the
  * resulting 0-1 MKP exactly, and (4) trivially flags every non-excluded
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
    val chosen  = MkpSolver.searchRuns(mkp.profits, mkp.runs, mkp.capacities).selected.map(mkp.nodes(_))

    // Algorithm 1 line 9: nodes outside every kept constraint set and not
    // excluded are flagged for free.
    val inMkp = mkp.nodes.toSet
    val free = (0 until dag.n).filter(i => !inMkp(i) && !exclude(i)).toSet
    chosen ++ free
  }

  /** The MKP of Algorithm 1 under `order`: item y is node `nodes(y)`, one of
    * the nodes in any kept constraint set (ascending), and each kept set is
    * one row with capacity `memoryBudget`. Item y weighs its node's size in
    * the rows holding it, given as `runs(y)`: the rows follow execution
    * order and a node is alive over one span of positions, so that is one
    * run of consecutive rows.
    */
  private[core] final case class Instance(nodes: Vector[Int], profits: Vector[Double],
                                          runs: Vector[Vector[MkpSolver.Run]],
                                          capacities: Vector[Long])

  private[core] def instance(dag: Dag, memoryBudget: Long, order: Vector[Int]): Instance = {
    val rows = Constraints.constraintRows(dag, order, memoryBudget)
    val vMkp = (0 until dag.n).filter(j => (0 until rows.size).exists(rows.contains(_, j))).toVector
    val runs = vMkp.map(j =>
      MkpSolver.runs((0 until rows.size).map(r => if (rows.contains(r, j)) dag.size(j) else 0L)))
    Instance(vMkp, vMkp.map(dag.speedup), runs, Vector.fill(rows.size)(memoryBudget))
  }
}
