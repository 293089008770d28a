package repro.core

/** Algorithm 2 — AlternatingOptimization: the full S/C Opt solver.
  *
  * Starting from a deterministic topological order and U = ∅, alternate
  * solving S/C Opt Nodes (node selector; SimplifiedMKP for S/C proper) and
  * S/C Opt Order (order solver; MA-DFS for S/C proper) until either
  *   (1) the node selector no longer improves the total speedup score
  *       (Algorithm 2 line 5 — the pseudocode compares flagged sizes; we
  *       compare the objective, per the paper's convergence argument), or
  *   (2) the new order is infeasible for the current flagged set (line 8).
  * The flagged-set objective strictly increases every continued iteration,
  * so termination is guaranteed.
  */
object AlternatingOpt {

  /** Pluggable sub-solvers, for the § VI-F ablations. */
  final case class Solvers(
      nodes: (Dag, Long, Vector[Int]) => Set[Int],
      order: (Dag, Set[Int]) => Vector[Int],
  )

  /** S/C's own configuration: MKP (optimal when its search finishes under
    * the 200k-node cap, otherwise the best set found within it) +
    * memory-aware DFS.
    */
  val scSolvers: Solvers = Solvers(SimplifiedMkp.solve, MaDfs.order)

  /** Result of the optimization plus the number of iterations it took. */
  final case class Result(plan: Plan, iterations: Int)

  private val MaxIterations = 100

  def solve(dag: Dag, memoryBudget: Long, solvers: Solvers = scSolvers): Result = {
    var order   = dag.topological
    var flagged = Set.empty[Int]
    var iter    = 0
    var stop    = false
    while (!stop && iter < MaxIterations) {
      iter += 1
      val flaggedNew = solvers.nodes(dag, memoryBudget, order)
      if (Plan(order, flaggedNew).totalSpeedup(dag) <= Plan(order, flagged).totalSpeedup(dag)) {
        stop = true // line 5: no improvement — return current (U, τ)
      } else {
        flagged = flaggedNew
        val orderNew = solvers.order(dag, flagged)
        if (!Plan.isFeasible(dag, Plan(orderNew, flagged), memoryBudget)) {
          stop = true // line 8: new order infeasible — keep previous τ
        } else {
          order = orderNew
        }
      }
    }
    Result(Plan(order, flagged), iter)
  }
}
