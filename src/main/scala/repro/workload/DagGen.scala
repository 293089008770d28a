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
    val r = rnd.nextDouble() * dist.map(_._2).sum
    var acc = 0.0
    dist.collectFirst { case (op, p) if { acc += p; r < acc } => op }
      .getOrElse(dist.last._1)
  }

  def generate(p: Params): Generated = {
    require(p.nNodes >= 1)
    val rnd = new Random(p.seed)

    // Stage layout: height/width ≈ ratio, height·width ≈ n; per-stage node
    // counts jittered by StageStdev then rescaled to exactly n nodes.
    val height = math.max(1, math.round(math.sqrt(p.nNodes * HeightWidthRatio)).toInt)
    val baseWidth = p.nNodes.toDouble / height
    val rawCounts = Vector.fill(height)(math.max(1.0, baseWidth + rnd.nextGaussian() * StageStdev))
    val scale = p.nNodes / rawCounts.sum
    val counts = {
      val c = rawCounts.map(x => math.max(1, math.round(x * scale).toInt)).toArray
      var diff = p.nNodes - c.sum
      var i = 0
      while (diff != 0) { // distribute rounding remainder deterministically
        val j = i % height
        if (diff > 0) { c(j) += 1; diff -= 1 }
        else if (c(j) > 1) { c(j) -= 1; diff += 1 }
        i += 1
      }
      c.toVector
    }
    val stageOf = counts.zipWithIndex.flatMap { case (cnt, s) => Vector.fill(cnt)(s) }
    val byStage = stageOf.zipWithIndex.groupMap(_._1)(_._2).view.mapValues(_.toVector).toMap

    // Edges: every non-root node gets ≥1 parent in the previous stage
    // (respecting parents' remaining out-degree budget when possible);
    // extra edges flow forward until each node meets its sampled out-degree.
    val outBudget = Vector.tabulate(p.nNodes)(_ => rnd.nextInt(MaxOutDegree + 1)).toArray
    val outUsed = Array.fill(p.nNodes)(0)
    val edges = scala.collection.mutable.Set.empty[(Int, Int)]
    (1 until height).foreach { s =>
      byStage(s).foreach { v =>
        val prev = byStage(s - 1)
        val withBudget = prev.filter(u => outUsed(u) < outBudget(u))
        val parent = (if (withBudget.nonEmpty) withBudget else prev)(
          rnd.nextInt(if (withBudget.nonEmpty) withBudget.size else prev.size))
        edges += ((parent, v))
        outUsed(parent) += 1
      }
    }
    (0 until p.nNodes).foreach { u =>
      val later = ((stageOf(u) + 1) until height).flatMap(byStage(_))
      var guard = 0
      while (outUsed(u) < outBudget(u) && later.nonEmpty && guard < 4 * MaxOutDegree) {
        val v = later(rnd.nextInt(later.size))
        if (!edges.contains((u, v))) { edges += ((u, v)); outUsed(u) += 1 }
        guard += 1
      }
    }

    // Operations via the Markov chain (roots are scans), then sizes.
    val ops = Array.ofDim[Op](p.nNodes)
    val sizes = Array.ofDim[Long](p.nNodes)
    val parentsOf: Int => Vector[Int] = {
      val m = edges.toVector.groupMap(_._2)(_._1)
      v => m.getOrElse(v, Vector.empty).sorted
    }
    (0 until p.nNodes).foreach { v =>
      val ps = parentsOf(v)
      if (ps.isEmpty) {
        ops(v) = Scan
        sizes(v) = baseTableBytes(rnd.nextInt(baseTableBytes.size))
      } else {
        ops(v) = pick(rnd, transitions(ops(ps.head)))
        val in = ps.map(sizes(_)).max
        sizes(v) = math.max(1L << 20, (in * sizeFactor(ops(v), rnd)).toLong)
      }
    }

    // outUsed(v) counts v's out-edges, i.e. its children.
    val nodes = (0 until p.nNodes).map { v =>
      MvNode(v, s"g$v", sizes(v), NfsModel.paperEnvironment.speedupScore(outUsed(v), sizes(v), 0.0))
    }.toVector
    Generated(Dag(nodes, edges.toSet), ops.toVector, stageOf)
  }
}
