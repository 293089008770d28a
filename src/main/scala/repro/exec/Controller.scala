package repro.exec

import java.nio.file.{Files, Path}
import java.util.concurrent.Executors
import java.util.concurrent.locks.LockSupport
import scala.collection.mutable
import scala.concurrent.duration.Duration
import scala.concurrent.{Await, ExecutionContext, Future}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.types.StructType
import org.apache.spark.storage.StorageLevel
import repro.core.Plan
import repro.workload.{Dataset, MvSpec, TpcDsLite, Workload}

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
  * target and enter [[RunReport.ioRatio]].
  */
final case class NodeReport(name: String, flagged: Boolean, outBytes: Long,
                            baseReadMs: Double, parentReadMs: Double,
                            execMs: Double, writeDelayMs: Double)

/** End-to-end measurements from one run (Table IV semantics: the Query
  * latency is TableRead + Compute; foreground writes are reported apart,
  * background writes overlap downstream execution).
  */
final case class RunReport(workload: String, dataset: String, method: String,
                           endToEndMs: Double, writeBackgroundMs: Double,
                           peakCatalogBytes: Long, nodes: Vector[NodeReport]) {
  def tableReadMs: Double = nodes.foldLeft(0.0)((s, n) => s + (n.baseReadMs + n.parentReadMs))
  def computeMs: Double = nodes.foldLeft(0.0)(_ + _.execMs)
  def writeForegroundMs: Double = nodes.foldLeft(0.0)(_ + _.writeDelayMs)
  def queryMs: Double = tableReadMs + computeMs
  /** Table III's I/O ratio: modeled parent-MV read and write time, the
    * share S/C can optimize, over total time (base-table reads included).
    */
  def ioRatio: Double = {
    val io = nodes.foldLeft(0.0)(_ + _.parentReadMs) + writeForegroundMs + writeBackgroundMs
    io / math.max(1e-9, io + nodes.foldLeft(0.0)(_ + _.baseReadMs) + computeMs)
  }
  def sizes: Map[String, Long] = nodes.map(n => n.name -> n.outBytes).toMap
  def execMsByName: Map[String, Double] = nodes.map(n => n.name -> n.execMs).toMap
}

/** The S/C Controller (§ III-B/C): executes a refresh plan on Spark.
  *
  * Each node's SQL runs over temp views: base tables are Parquet reads of
  * the dataset, parents are either the flagged parent's memory-persisted
  * DataFrame (no storage read) or a Parquet read of the parent's
  * materialized output (modeled storage read). Every MV is written to
  * storage once, by its statement; a flagged node's write also fills its
  * Memory-Catalog entry, and the write's modeled NFS charge is slept on a
  * background channel in parallel with downstream execution, where an
  * unflagged node's is slept on the critical path. The run ends when every
  * charge has been slept.
  *
  * The Memory Catalog is the set of memory-persisted flagged outputs. An
  * entry is held exactly over the plan's [[Plan.residency]] span and leaves
  * Spark's cache right after its last child has run, so the catalog's
  * occupancy is the plan's peak under the calibrated sizes — the same
  * numbers the optimizer reasoned with — and a plan whose peak exceeds the
  * budget is rejected before any MV runs.
  *
  * The DBMS-LRU-cache baseline (§ VI-A, [[runLru]]) runs on the same
  * storage steps; only its cache policy differs.
  */
final class Controller(spark: SparkSession, dataset: Dataset, cfg: ExecConfig) {

  private val nfs = cfg.nfs.getOrElse(NfsModel.free)

  private def mvPath(name: String): Path = cfg.outDir.resolve(name)

  private def write(df: DataFrame, name: String): Unit =
    df.write.mode("overwrite").parquet(mvPath(name).toString)

  /** Charges (and sleeps for) the modeled write of `bytes`. */
  private def chargeWrite(bytes: Long): Double = {
    val w = nfs.writeMs(bytes)
    Controller.sleep(w)
    w
  }

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
    // A flagged node leaves the catalog right after the position where its
    // residency ends (§ III-C): its last child, or itself when childless.
    val releaseAfter = {
      val r = Plan.residency(dag, plan.order)
      plan.flagged.toSeq.groupBy(r.end)
    }
    refresh(workload, sizes, method) { steps =>
      val resident = mutable.Map.empty[String, DataFrame] // the Memory Catalog
      plan.order.zipWithIndex.foreach { case (idx, k) =>
        val mv = workload.mvs(idx)
        // A flagged node is created in the Memory Catalog by its write,
        // whose charge is slept in parallel with downstream execution.
        val flagged = plan.flagged(idx)
        val df = steps.node(mv, resident.get, persist = flagged, background = flagged)
        if (flagged) resident(mv.name) = df
        releaseAfter.getOrElse(k, Nil).foreach { j =>
          resident.remove(workload.mvs(j).name).get.unpersist(false)
        }
      }
      Plan.peakMemoryUsage(dag, plan)
    }
  }

  /** No-optimization baseline: deterministic topological order, no flags. */
  def runBaseline(workload: Workload, sizes: Map[String, Long] = Map.empty): RunReport =
    run(workload, Plan(workload.structuralDag.topological, Set.empty), sizes, method = "no-opt")

  /** The DBMS-LRU-cache baseline (§ VI-A): query results are cached in an
    * LRU cache whose capacity equals the Memory Catalog budget. Execution
    * follows the plain topological order; every MV is written to storage on
    * the critical path (the cache short-circuits reads only, not writes).
    * An MV is cached when it fits the budget and has children; a cached
    * parent is served from memory and touched.
    */
  def runLru(workload: Workload, sizes: Map[String, Long]): RunReport = {
    val sdag = workload.structuralDag
    refresh(workload, sizes, "lru") { steps =>
      // Least recently used first: a hit is removed and reinserted.
      val cache = mutable.LinkedHashMap.empty[String, (DataFrame, Long)]
      val touch = (p: String) => cache.remove(p).map { entry => cache(p) = entry; entry._1 }
      var cachedBytes, peak = 0L
      sdag.topological.foreach { idx =>
        val mv = workload.mvs(idx)
        val bytes = sizes(mv.name)
        val cacheable = bytes <= cfg.memoryCatalogBytes && sdag.children(idx).nonEmpty
        // Persisted before the write, so the one execution of the statement
        // both writes the MV and fills the cache. Eviction waits until it
        // has run: evicting first could drop a cached parent it reads and
        // make Spark recompute that parent.
        val df = steps.node(mv, touch, persist = cacheable, background = false)
        if (cacheable) {
          while (cachedBytes + bytes > cfg.memoryCatalogBytes && cache.nonEmpty) {
            val (name, (evicted, evictedBytes)) = cache.head
            cache.remove(name)
            evicted.unpersist(false)
            cachedBytes -= evictedBytes
          }
          cache(mv.name) = (df, bytes)
          cachedBytes += bytes
          peak = math.max(peak, cachedBytes)
        }
      }
      peak
    }
  }

  /** Runs `loop` over one refresh's [[Steps]] and reports the run, with
    * `loop`'s result as the Memory Catalog peak. The steps' resources are
    * released whether or not the run fails.
    */
  private def refresh(workload: Workload, sizes: Map[String, Long], method: String)
                     (loop: Steps => Long): RunReport = {
    Files.createDirectories(cfg.outDir)
    TpcDsLite.registerViews(spark, dataset)
    val steps = new Steps(sizes, method)
    try {
      val peak = loop(steps)
      steps.report(workload, peak)
    } finally steps.close()
  }

  /** The per-node steps of one refresh, with the modeled NFS charges, and
    * the reports and resources they accumulate. Spark work of each node
    * carries the job description "`method` `mv`".
    */
  private final class Steps(sizes: Map[String, Long], method: String) {
    // One materialization channel, as in § III-C / Fig 6: background write
    // charges are slept one at a time, in parallel with downstream
    // execution (the timeline simulator models the same single channel).
    private val writePool = Executors.newFixedThreadPool(1)
    private implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(writePool)
    private val sc = spark.sparkContext
    private val bgWrites = mutable.Buffer.empty[Future[Double]]
    private val persisted = mutable.Buffer.empty[DataFrame]
    private val schemas = mutable.Map.empty[String, StructType] // by MV, of the statement run
    private val views = mutable.Set.empty[String] // parent MV temp views registered
    private val nodeReports = Vector.newBuilder[NodeReport]
    private val t0 = System.nanoTime()

    private def outBytes(name: String): Long = sizes.getOrElse(name, TpcDsLite.dirBytes(mvPath(name)))

    /** Refreshes `mv` and returns its statement's DataFrame. A parent that
      * `cached` holds is bound from memory, any other is a charged Parquet
      * read of its output, bound with the schema of the statement that
      * wrote it. The MV is written at once. When `persist`, the returned
      * DataFrame is the statement's rows cached on the partitions AQE chose
      * for it, and the write fills that cache. When `background`, the
      * write's charge is slept on the background channel; otherwise on the
      * critical path.
      */
    def node(mv: MvSpec, cached: String => Option[DataFrame],
             persist: Boolean, background: Boolean): DataFrame = {
      sc.setJobDescription(s"$method ${mv.name}")
      val baseRead = dataset.baseReadBytes(mv).map(nfs.readMs).sum
      var parentRead = 0.0
      mv.parents.foreach { p =>
        views += p
        cached(p) match {
          case Some(df) => df.createOrReplaceTempView(p)
          case None =>
            spark.read.schema(schemas(p)).parquet(mvPath(p).toString).createOrReplaceTempView(p)
            parentRead += nfs.readMs(outBytes(p))
        }
      }
      Controller.sleep(baseRead + parentRead)

      val tExec0 = System.nanoTime()
      val stmt = spark.sql(mv.sqlFor(dataset.partitioned))
      schemas(mv.name) = stmt.schema
      val df = if (!persist) stmt else {
        // Persisting `stmt` would cache its plan as it stands before AQE
        // coalesces the shuffle partitions, and every child and the write
        // would run one task per uncoalesced partition. `stmt.rdd` runs
        // the statement's shuffle stages and ends on AQE's partitions; the
        // entry caches them when the write reads it.
        val entry = spark.createDataFrame(stmt.rdd, stmt.schema)
        // Registered before the persist, so close() unpersists it even when
        // the write that fills the cache fails.
        persisted += entry
        entry.persist(StorageLevel.MEMORY_ONLY)
      }
      write(df, mv.name)
      val execMs = (System.nanoTime() - tExec0) / 1e6
      val bytes = outBytes(mv.name)
      val writeDelay =
        if (!background) chargeWrite(bytes)
        else { bgWrites += Future(chargeWrite(bytes)); 0.0 }
      nodeReports += NodeReport(mv.name, background, bytes, baseRead, parentRead, execMs, writeDelay)
      df
    }

    /** All MVs count as refreshed only once materialized on storage. */
    def report(workload: Workload, peak: Long): RunReport = {
      val bgDelays = bgWrites.toVector.map(f => Await.result(f, Duration.Inf))
      val endToEnd = (System.nanoTime() - t0) / 1e6
      RunReport(workload.key, dataset.name, method, endToEnd, bgDelays.sum, peak,
        nodeReports.result())
    }

    def close(): Unit = {
      sc.setJobDescription(null)
      // On failure too, no background charge may outlive the run.
      bgWrites.foreach(Await.ready(_, Duration.Inf))
      persisted.foreach(_.unpersist(false)) // idempotent after a release or eviction
      writePool.shutdown()
      // The views point at unpersisted DataFrames or at output a later run
      // may delete; none may outlive the run.
      views.foreach(spark.catalog.dropTempView)
    }
  }
}

object Controller {
  /** Spark settings every session that runs a Controller is built with: no
    * broadcast joins, so every join takes the shuffle path, and `file:` is
    * [[NioLocalFileSystem]], which sets permissions without forking `chmod`.
    * The scheduler mode is left at Spark's default: a refresh runs its
    * statements one after another on the driver thread, and the background
    * channel only sleeps, so no two MVs' Spark jobs run at once.
    */
  val SparkSettings: Map[String, String] = Map(
    "spark.sql.autoBroadcastJoinThreshold" -> "-1",
    "spark.hadoop.fs.file.impl" -> classOf[NioLocalFileSystem].getName,
  )

  /** Sleeps `ms` milliseconds, to the nanosecond: a modeled NFS charge is
    * slept in full, however small or fractional.
    */
  private[exec] def sleep(ms: Double): Unit = {
    val end = System.nanoTime() + (ms * 1e6).toLong
    var left = end - System.nanoTime()
    while (left > 0) {
      LockSupport.parkNanos(left)
      if (Thread.interrupted()) throw new InterruptedException
      left = end - System.nanoTime()
    }
  }
}
