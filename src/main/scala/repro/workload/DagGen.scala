package repro.workload

import scala.util.Random
import repro.core.{Dag, MvNode}
import repro.exec.NfsModel

/** Synthetic workload generator (§ VI-A "Generated Workload", § VI-H).
  *
  * Two components, as in the paper:
  *  1. a stage-structured DAG generator (height × width with per-stage node
  *     count noise and bounded out-degree), following the structure of
  *     Spark workloads;
  *  2. a Markov chain over node operations (SCAN/JOIN/AGG/FILTER/PROJECT),
  *     with transitions estimated from SPJ decompositions of TPC-DS-style
  *     queries, used to derive node sizes from their inputs. Root (SCAN)
  *     sizes are sampled from a TPC-DS-at-100GB table-size palette.
  * Speedup scores are derived from sizes with `NfsModel.paperEnvironment`
  * and no in-memory create cost. Everything is deterministic in the seed.
  */
object DagGen {

  sealed trait Op
  case object Scan extends Op
  case object Join extends Op
  case object Agg extends Op
  case object Filter extends Op
  case object Project extends Op

  /** Markov transitions conditioned on the (first) parent's operation. */
  private val transitions: Map[Op, Vector[(Op, Double)]] = Map(
    Scan    -> Vector(Join -> 0.45, Filter -> 0.30, Project -> 0.15, Agg -> 0.10),
    Join    -> Vector(Join -> 0.30, Agg -> 0.30, Filter -> 0.25, Project -> 0.15),
    Filter  -> Vector(Join -> 0.35, Agg -> 0.30, Project -> 0.20, Filter -> 0.15),
    Project -> Vector(Join -> 0.35, Agg -> 0.35, Filter -> 0.30),
    Agg     -> Vector(Join -> 0.40, Project -> 0.30, Filter -> 0.30),
  )

  /** Output-size multipliers relative to the (max) input size. */
  private def sizeFactor(op: Op, rnd: Random): Double = op match {
    case Scan    => 1.0
    case Join    => 0.8 + rnd.nextDouble() * 0.9   // 0.8–1.7
    case Filter  => 0.1 + rnd.nextDouble() * 0.5   // 0.1–0.6
    case Project => 0.3 + rnd.nextDouble() * 0.4   // 0.3–0.7
    case Agg     => 0.01 + rnd.nextDouble() * 0.09 // 0.01–0.1
  }

  /** TPC-DS @ 100 GB table sizes (bytes) used as root-scan output sizes. */
  private val baseTableBytes: Vector[Long] = Vector(
    38L << 30, 19L << 30, 10L << 30, // store_sales, catalog_sales, web_sales
    2L << 30, 1L << 30,              // returns-style tables
    200L << 20, 100L << 20, 25L << 20, 10L << 20, // dimensions
  )

  // Fig 14's sweep parameters (out of scope), fixed at the generator's defaults.
  private val HeightWidthRatio = 1.0
  private val MaxOutDegree = 4
  private val StageStdev = 1.0

  final case class Params(nNodes: Int, seed: Long = 0)

  final case class Generated(dag: Dag, ops: Vector[Op], stageOf: Vector[Int])

  private def pick(rnd: Random, dist: Vector[(Op, Double)]): Op = {
    val r = rnd.nextDouble() * dist.foldLeft(0.0)(_ + _._2)
    var acc = 0.0
    dist.collectFirst { case (op, p) if { acc += p; r < acc } => op }
      .getOrElse(dist.last._1)
  }

  def generate(p: Params): Generated = {
    require(p.nNodes >= 1)
    val n = p.nNodes
    val rnd = new Random(p.seed)

    // Stage layout: height/width ≈ ratio, height·width ≈ n; per-stage node
    // counts jittered by StageStdev then rescaled to exactly n nodes.
    val height = math.max(1, math.round(math.sqrt(n * HeightWidthRatio)).toInt)
    val baseWidth = n.toDouble / height
    val rawCounts = Array.fill(height)(math.max(1.0, baseWidth + rnd.nextGaussian() * StageStdev))
    val scale = n / rawCounts.foldLeft(0.0)(_ + _)
    val counts = rawCounts.map(x => math.max(1, math.round(x * scale).toInt))
    var diff = n - counts.sum
    var i = 0
    while (diff != 0) { // distribute rounding remainder deterministically
      val j = i % height
      if (diff > 0) { counts(j) += 1; diff -= 1 }
      else if (counts(j) > 1) { counts(j) -= 1; diff += 1 }
      i += 1
    }
    // Stage s holds the nodes [first(s), first(s + 1)); first(height) = n.
    val first = counts.scanLeft(0)(_ + _)
    val stageOf = new Array[Int](n)
    for (s <- 0 until height) java.util.Arrays.fill(stageOf, first(s), first(s + 1), s)

    // Edges: every non-root node gets ≥1 parent in the previous stage
    // (respecting parents' remaining out-degree budget when possible);
    // extra edges flow forward until each node meets its sampled out-degree.
    val outBudget = Array.fill(n)(rnd.nextInt(MaxOutDegree + 1))
    val outUsed = new Array[Int](n)
    val adj = new Array[Boolean](n * n) // adj(u * n + v): edge (u, v)
    // A node gets at most one previous-stage edge beyond its budget.
    val from, to = new Array[Int](n * (MaxOutDegree + 1))
    var nEdges = 0
    def link(u: Int, v: Int): Unit = {
      adj(u * n + v) = true
      outUsed(u) += 1
      from(nEdges) = u; to(nEdges) = v; nEdges += 1
    }
    val withBudget = new Array[Int](n)
    for (s <- 1 until height; v <- first(s) until first(s + 1)) {
      var k = 0
      var u = first(s - 1)
      while (u < first(s)) {
        if (outUsed(u) < outBudget(u)) { withBudget(k) = u; k += 1 }
        u += 1
      }
      link(if (k > 0) withBudget(rnd.nextInt(k)) else first(s - 1) + rnd.nextInt(counts(s - 1)), v)
    }
    for (u <- 0 until n) {
      val later = first(stageOf(u) + 1) // the later stages' nodes are [later, n)
      var guard = 0
      while (outUsed(u) < outBudget(u) && later < n && guard < 4 * MaxOutDegree) {
        val v = later + rnd.nextInt(n - later)
        if (!adj(u * n + v)) link(u, v)
        guard += 1
      }
    }

    // Operations via the Markov chain (roots are scans), then sizes. A
    // node's parents lie in earlier stages; its op follows the first one's.
    val ops = new Array[Op](n)
    val sizes = new Array[Long](n)
    for (v <- 0 until n) {
      var firstParent = -1
      var in = 0L
      var u = 0
      while (u < first(stageOf(v))) {
        if (adj(u * n + v)) {
          if (firstParent < 0) firstParent = u
          in = math.max(in, sizes(u))
        }
        u += 1
      }
      if (firstParent < 0) {
        ops(v) = Scan
        sizes(v) = baseTableBytes(rnd.nextInt(baseTableBytes.size))
      } else {
        ops(v) = pick(rnd, transitions(ops(firstParent)))
        sizes(v) = math.max(1L << 20, (in * sizeFactor(ops(v), rnd)).toLong)
      }
    }

    // outUsed(v) counts v's out-edges, i.e. its children.
    val nodes = Vector.tabulate(n) { v =>
      MvNode(v, s"g$v", sizes(v), NfsModel.paperEnvironment.speedupScore(outUsed(v), sizes(v), 0.0))
    }
    val edges = Set.newBuilder[(Int, Int)]
    for (e <- 0 until nEdges) edges += ((from(e), to(e)))
    Generated(Dag(nodes, edges.result()), ops.toVector, stageOf.toVector)
  }
}
