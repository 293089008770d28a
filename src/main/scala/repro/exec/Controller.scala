package repro.exec

import java.nio.file.{Files, Path}
import java.util.concurrent.Executors
import scala.collection.mutable
import scala.concurrent.duration.Duration
import scala.concurrent.{Await, ExecutionContext, Future}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.core.Plan
import repro.workload.{Dataset, TpcDsLite, Workload}

/** Execution configuration for one refresh run.
  *
  * @param memoryCatalogBytes Memory Catalog budget M
  * @param nfs                modeled storage costs; None disables delays
  *                           (unit tests) but keeps all real Spark work
  * @param outDir             directory for materialized MV Parquet
  */
final case class ExecConfig(memoryCatalogBytes: Long, nfs: Option[NfsModel], outDir: Path)

/** Per-node measurements from one run. Base-table reads are kept apart from
  * intermediate (parent MV) reads: only the latter are S/C's optimization
  * target and enter the Table III I/O ratio.
  */
final case class NodeReport(name: String, flagged: Boolean, outBytes: Long,
                            baseReadMs: Double, parentReadMs: Double,
                            execMs: Double, writeDelayMs: Double)

/** End-to-end measurements from one run (Table IV semantics: the Query
  * latency is TableRead + Compute; foreground writes are reported apart,
  * background writes overlap downstream execution).
  */
final case class RunReport(workload: String, dataset: String, method: String,
                           endToEndMs: Double, tableReadMs: Double, computeMs: Double,
                           writeForegroundMs: Double, writeBackgroundMs: Double,
                           peakCatalogBytes: Long, nodes: Vector[NodeReport]) {
  def queryMs: Double = tableReadMs + computeMs
  def sizes: Map[String, Long] = nodes.map(n => n.name -> n.outBytes).toMap
  def execMsByName: Map[String, Double] = nodes.map(n => n.name -> n.execMs).toMap
}

/** The S/C Controller (§ III-B/C): executes a refresh plan on Spark.
  *
  * Each node's SQL runs over temp views: base tables are Parquet reads of
  * the dataset, parents are either the flagged parent's memory-persisted
  * DataFrame (no storage read) or a Parquet read of the parent's
  * materialized output (modeled storage read). Flagged nodes are created in
  * the Memory Catalog and materialized to storage on a background thread in
  * parallel with downstream execution; unflagged nodes materialize on the
  * critical path. The run ends when all MVs are materialized on storage.
  *
  * The Memory Catalog is the set of memory-persisted flagged outputs. Its
  * occupancy is the plan's [[Plan.residency]] under the calibrated sizes —
  * the same numbers the optimizer reasoned with — so a plan whose peak
  * exceeds the budget is rejected before any MV runs.
  */
final class Controller(spark: SparkSession, dataset: Dataset, cfg: ExecConfig) {

  private val nfs = cfg.nfs.getOrElse(NfsModel.free)

  private def mvPath(name: String): Path = cfg.outDir.resolve(name)

  private def delay(ms: Double): Unit =
    if (ms >= 1.0) Thread.sleep(ms.toLong)

  /** Run `workload` under `plan`. `sizes` are the calibrated output sizes
    * (empty on the calibration run itself, where nothing is flagged and
    * sizes are measured from the written Parquet).
    */
  def run(workload: Workload, plan: Plan, sizes: Map[String, Long],
          method: String = "sc"): RunReport = {
    require(plan.flagged.forall(i => sizes.contains(workload.mvs(i).name)),
      "flagged nodes need calibrated sizes")
    val dag = {
      val sdag = workload.structuralDag
      sdag.copy(nodes = sdag.nodes.map(nd => nd.copy(sizeBytes = sizes.getOrElse(nd.name, 0L))))
    }
    require(Plan.isFeasible(dag, plan, cfg.memoryCatalogBytes),
      "plan order must be a topological order of the MVs whose Memory Catalog peak " +
        s"fits ${cfg.memoryCatalogBytes} B")
    Files.createDirectories(cfg.outDir)
    TpcDsLite.registerViews(spark, dataset)

    // One materialization channel, as in § III-C / Fig 6: flagged outputs
    // are written to storage one at a time, in parallel with downstream
    // execution (the timeline simulator models the same single channel).
    val writePool = Executors.newFixedThreadPool(1)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(writePool)
    val bgWrites = mutable.Map.empty[String, Future[Double]]
    val resident = mutable.Map.empty[String, DataFrame] // the Memory Catalog
    val persisted = mutable.Buffer.empty[DataFrame]
    val views = mutable.Set.empty[String] // parent MV temp views registered
    // A flagged node leaves the catalog right after the position where its
    // residency ends (§ III-C): its last child, or itself when childless.
    val releaseAfter = {
      val r = Plan.residency(dag, plan.order)
      plan.flagged.toSeq.groupBy(r.end)
    }
    val nodeReports = Vector.newBuilder[NodeReport]
    var readTotal, computeTotal, writeFgTotal = 0.0

    val t0 = System.nanoTime()
    try {
      plan.order.zipWithIndex.foreach { case (idx, k) =>
        val mv = workload.mvs(idx)
        // Bind parent views: Memory Catalog hit → cached DataFrame, no
        // storage read; miss → Parquet read with modeled NFS delay.
        val baseRead = dataset.baseReadBytes(mv).map(nfs.readMs).sum
        var parentRead = 0.0
        mv.parents.foreach { p =>
          views += p
          if (resident.contains(p)) {
            resident(p).createOrReplaceTempView(p)
          } else {
            spark.read.parquet(mvPath(p).toString).createOrReplaceTempView(p)
            parentRead += nfs.readMs(sizes.getOrElse(p, TpcDsLite.dirBytes(mvPath(p))))
          }
        }
        val readDelay = baseRead + parentRead
        delay(readDelay)
        readTotal += readDelay

        val sql = mv.sqlFor(dataset.partitioned)
        val flagged = plan.flagged(idx)
        var writeDelay = 0.0
        var outBytes = 0L
        val tExec0 = System.nanoTime()
        if (flagged) {
          // Create in the Memory Catalog. Registered before the persist, so
          // the finally unpersists it even when the count fails.
          val df = spark.sql(sql)
          persisted += df
          df.persist(StorageLevel.MEMORY_ONLY).count()
          resident(mv.name) = df
          outBytes = sizes(mv.name)
          val execMs = (System.nanoTime() - tExec0) / 1e6
          computeTotal += execMs
          // Materialize to storage in parallel with downstream execution.
          bgWrites(mv.name) = Future {
            df.write.mode("overwrite").parquet(mvPath(mv.name).toString)
            val w = nfs.writeMs(sizes(mv.name))
            delay(w)
            w
          }
          nodeReports += NodeReport(mv.name, flagged = true, outBytes, baseRead, parentRead, execMs, 0.0)
        } else {
          spark.sql(sql).write.mode("overwrite").parquet(mvPath(mv.name).toString)
          val execMs = (System.nanoTime() - tExec0) / 1e6
          computeTotal += execMs
          outBytes = sizes.getOrElse(mv.name, TpcDsLite.dirBytes(mvPath(mv.name)))
          writeDelay = nfs.writeMs(outBytes)
          delay(writeDelay)
          writeFgTotal += writeDelay
          nodeReports += NodeReport(mv.name, flagged = false, outBytes, baseRead, parentRead, execMs, writeDelay)
        }

        // The physical unpersist waits for the background materialization.
        releaseAfter.getOrElse(k, Nil).foreach { j =>
          val name = workload.mvs(j).name
          val df = resident.remove(name).get
          bgWrites(name).onComplete(_ => df.unpersist(false))
        }
      }

      // All MVs count as refreshed only once materialized on storage.
      val bgDelays = bgWrites.values.toVector.map(f => Await.result(f, Duration.Inf))
      val endToEnd = (System.nanoTime() - t0) / 1e6
      RunReport(workload.key, dataset.name, method, endToEnd, readTotal, computeTotal,
        writeFgTotal, bgDelays.sum, Plan.peakMemoryUsage(dag, plan), nodeReports.result())
    } finally {
      // On failure too, no background write may outlive the run.
      bgWrites.values.foreach(Await.ready(_, Duration.Inf))
      persisted.foreach(_.unpersist(false)) // idempotent after a release
      writePool.shutdown()
      // The views point at unpersisted DataFrames or at output a later run
      // may delete; none may outlive the run.
      views.foreach(spark.catalog.dropTempView)
    }
  }

  /** No-optimization baseline: deterministic topological order, no flags. */
  def runBaseline(workload: Workload, sizes: Map[String, Long] = Map.empty): RunReport =
    run(workload, Plan(workload.structuralDag.topological, Set.empty), sizes, method = "no-opt")
}
