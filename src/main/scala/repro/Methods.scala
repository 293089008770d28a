package repro

import repro.core.{AlternatingOpt, Dag, NodeBaselines, OrderBaselines, Plan}
import repro.exec.{Controller, RunReport}
import repro.workload.Workload

/** The one mapping from a method name to a plan and an executor, shared by
  * the `jobs/` entrypoints and the bench suites, plus the settings that
  * decide how a paper-side label becomes optimizer input.
  */
object Methods {

  /** Observed cost (ms) of creating a node in the Memory Catalog: the extra
    * Spark action that materializes the cached DataFrame. It enters the
    * speedup score as the paper's `time(create v_i in memory)` term.
    */
  val MemCreateMs: Double = 400.0

  /** Memory-regime factor (DESIGN.md § 2): TPC-DS-lite tables are narrow, so
    * its intermediates are ~8× larger relative to the dataset than the
    * paper's; catalog budgets are scaled by the same factor to land in the
    * paper's catalog:intermediate regime.
    */
  private val RegimeFactor = 8.0

  /** Memory Catalog bytes for a paper-side percentage label. */
  def budget(datasetBytes: Long, paperPct: Double): Long =
    (datasetBytes * paperPct * RegimeFactor / 100.0).toLong

  /** Seed of the Random baseline. */
  private val RandomSeed = 7L

  /** The plan of `name` ∈ no-opt | sc | greedy | random | ratio. The
    * baselines keep Kahn's order and run one node-selection pass, as in the
    * paper. LRU has no plan: [[run]] runs it on the Controller's LRU policy.
    */
  def plan(name: String, dag: Dag, budget: Long): Plan = {
    lazy val kahn = dag.topological
    def onePass(nodes: (Dag, Long, Vector[Int]) => Set[Int]) = Plan(kahn, nodes(dag, budget, kahn))
    name match {
      case "no-opt" => Plan(kahn, Set.empty)
      case "sc"     => AlternatingOpt.solve(dag, budget).plan
      case "greedy" => onePass(NodeBaselines.greedy)
      case "random" => onePass(NodeBaselines.random(_, _, _, RandomSeed))
      case "ratio"  => onePass(NodeBaselines.ratio)
      case other    => throw new IllegalArgumentException(s"unknown method $other")
    }
  }

  /** Refreshes `workload` on `controller` (catalog budget `budget`) with
    * method `name` ∈ lru or a [[plan]] name, under calibrated `sizes`.
    */
  def run(name: String, controller: Controller, workload: Workload, dag: Dag, budget: Long,
          sizes: Map[String, Long]): RunReport =
    if (name == "lru") controller.runLru(workload, sizes)
    else controller.run(workload, plan(name, dag, budget), sizes, name)

  /** The § VI-F ablation pairs (Figs 12 and 13): S/C's own solvers first,
    * then MKP and MA-DFS each swapped for an alternative.
    */
  val ablations: Vector[(String, AlternatingOpt.Solvers)] = {
    val sc = AlternatingOpt.scSolvers
    Vector(
      "MKP+MA-DFS"    -> sc,
      "Greedy+MA-DFS" -> sc.copy(nodes = NodeBaselines.greedy),
      "Random+MA-DFS" -> sc.copy(nodes = NodeBaselines.random(_, _, _, RandomSeed)),
      "Ratio+MA-DFS"  -> sc.copy(nodes = NodeBaselines.ratio),
      "MKP+SA"        -> sc.copy(order = (d, u) => OrderBaselines.simulatedAnnealing(d, u, d.topological)),
      "MKP+Separator" -> sc.copy(order = OrderBaselines.separator),
    )
  }
}
