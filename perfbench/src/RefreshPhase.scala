package perfbench

import java.nio.file.{Files, Path}
import java.util.Comparator
import java.util.concurrent.Executors
import scala.concurrent.duration.Duration
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.util.control.NonFatal
import org.apache.spark.ListenerDrain
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.{coalesce, col, count, hash, lit, sum}
import repro.core.{AlternatingOpt, Plan}
import repro.exec.{Controller, ExecConfig, NfsModel, RunReport}
import repro.sim.Simulator
import repro.workload.{Metadata, TpcDsLite, Workload}

/** One refresh workload: a TPC-DS-lite DAG refreshed with S/C and with no
  * optimization.
  *
  * Construction is most of the set-up: data generation, calibration with
  * the delay model off (the untimed no-opt refresh) and reference checksums
  * of every MV; `warmUp` adds the untimed S/C refresh. `refresh` then times
  * one refresh of the given method with the modeled storage delays on and
  * checks its output against the reference.
  */
final class RefreshPhase(spark: SparkSession, w: Workload, work: Path, log: String => Unit) {
  import RefreshPhase._

  private val sc = spark.sparkContext

  val (dataset, datagenS) =
    timed(TpcDsLite.generate(spark, work.resolve("data"), Settings.sf, partitioned = false))
  private val calDir = work.resolve("calibration")
  val (calibration, calibrateS) =
    timed(Metadata.calibrate(spark, dataset, w, ExecConfig(0L, None, calDir)))
  private val sizes = calibration.sizes
  val (reference, checksumS) = timed(checksums(calDir))
  require(reference.size == w.mvs.size, "calibration outputs could not be read")

  val nfs: NfsModel = NfsModel.scaledTo(dataset.totalBytes, Settings.fullScanSeconds)
  val budget: Long = (dataset.totalBytes * Settings.catalogPct * Settings.regimeFactor / 100.0).toLong
  val dag = Metadata.dag(w, sizes, nfs, Settings.memCreateMs)
  val scPlan: Plan = AlternatingOpt.solve(dag, budget).plan
  private val nooptPlan = Plan(w.structuralDag.topological, Set.empty)

  /** Untimed S/C refresh without modeled delays. The calibration run is
    * the untimed no-opt refresh of the set-up.
    */
  def warmUp(): Double = {
    val out = work.resolve("warmup-sc")
    val (_, secs) = timed(execute("sc", scPlan, ExecConfig(budget, None, out)))
    deleteTree(out)
    secs
  }

  private def execute(method: String, plan: Plan, cfg: ExecConfig): RunReport = {
    val controller = new Controller(spark, dataset, cfg)
    if (method == "sc") controller.run(w, plan, sizes, "sc")
    else controller.runBaseline(w, sizes)
  }

  /** Order-independent (row count, hash sum) of every MV's Parquet output
    * under `dir`, one Spark job per MV, `Settings.cores` at a time. Empty
    * when an output cannot be read.
    */
  private def checksums(dir: Path): Map[String, (Long, Long)] = {
    val pool = Executors.newFixedThreadPool(Settings.cores)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
    def one(name: String): (String, (Long, Long)) = {
      val df = spark.read.parquet(dir.resolve(name).toString)
      val row = df.agg(count(lit(1)),
        coalesce(sum(hash(df.columns.toSeq.map(col): _*).cast("long")), lit(0L))).head()
      name -> (row.getLong(0), row.getLong(1))
    }
    try Await.result(Future.traverse(w.mvs.map(_.name))(n => Future(one(n))), Duration.Inf).toMap
    catch { case NonFatal(_) => Map.empty }
    finally pool.shutdown()
  }

  /** Wait for asynchronous unpersists to land; false if storage stays busy. */
  private def storageDrained(): Boolean = {
    val deadline = System.nanoTime() + 5_000_000_000L
    def empty = CacheSampler.residentBytes(sc) == 0L && spark.sharedState.cacheManager.isEmpty
    while (!empty && System.nanoTime() < deadline) Thread.sleep(10)
    empty
  }

  /** Time one refresh of `method` ("sc" or "no-opt") with modeled delays.
    * For S/C the time includes planning. With `traced`, planning goes
    * through the traced solvers and the plan must equal the untraced one.
    */
  def refresh(method: String, tag: String, traced: Boolean,
              listener: Option[WorkListener]): Sample = {
    val errors = Vector.newBuilder[String]
    if (!storageDrained()) errors += "Spark storage memory not empty before the refresh"
    val out = work.resolve(s"refresh-$tag-$method")
    listener.foreach(_ => ListenerDrain(sc))
    val before = listener.map(_.snapshot())
    val sampler = new CacheSampler(sc)
    var core = Option.empty[PlanPhase.CoreTrace]
    val t0 = System.nanoTime()
    val attempt = try {
      val plan =
        if (method != "sc") nooptPlan
        else if (!traced) AlternatingOpt.solve(dag, budget).plan
        else { val (p, t) = PlanPhase.solveTraced(dag, budget); core = Some(t); p }
      Right((plan, execute(method, plan, ExecConfig(budget, Some(nfs), out))))
    } catch { case NonFatal(e) => Left(e) }
    val wallS = (System.nanoTime() - t0) / 1e9
    val peak = sampler.stop()
    listener.foreach(_ => ListenerDrain(sc))
    val sparkWork = for (l <- listener; b <- before) yield l.snapshot().minus(b)
    attempt match {
      case Left(e) =>
        errors += s"refresh threw ${e.getClass.getSimpleName}: ${e.getMessage}"
      case Right((plan, _)) =>
        if (!PlanPhase.feasible(dag, plan, budget)) errors += "plan is not topological or exceeds M"
        if (plan != (if (method == "sc") scPlan else nooptPlan)) errors += "plan differs from the set-up plan"
        val got = checksums(out)
        if (got.isEmpty) errors += "outputs could not be read"
        else w.mvs.foreach { m =>
          if (got(m.name) != reference(m.name))
            errors += s"${m.name}: output ${got(m.name)}, expected ${reference(m.name)}"
        }
    }
    deleteTree(out)
    val result = errors.result()
    result.foreach(e => log(s"error: $method $tag: $e"))
    Sample(method, wallS, attempt.toOption.map(_._2), peak, sparkWork, core, result)
  }

  /** Simulator inputs from the calibration run (sizes and per-node times). */
  def simInputs: Simulator.Inputs = Simulator.Inputs(
    sizes = w.mvs.map(m => sizes(m.name)).toVector,
    computeMs = w.mvs.map(m => calibration.report.execMsByName(m.name)).toVector,
    baseReadBytes = w.mvs.map(m =>
      m.baseTables.map(t => dataset.effectiveReadBytes(t, m.partitionYears.get(t))).sum).toVector,
    memCreateMs = Settings.memCreateMs,
  )

  def planFor(method: String): Plan = if (method == "sc") scPlan else nooptPlan

  /** Parent reads served from the Memory Catalog, out of all parent reads. */
  def catalogHitRatio: Double = {
    val reads = w.mvs.flatMap(_.parents)
    if (reads.isEmpty) 0.0 else reads.count(p => scPlan.flagged(w.index(p))).toDouble / reads.size
  }
}

object RefreshPhase {

  /** One timed refresh. `report` is empty when the refresh threw. */
  final case class Sample(method: String, wallS: Double, report: Option[RunReport],
                          peakCacheBytes: Long, work: Option[WorkListener.Snapshot],
                          core: Option[PlanPhase.CoreTrace], errors: Vector[String]) {
    def failed: Boolean = errors.nonEmpty
  }

  def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  def deleteTree(p: Path): Unit = if (Files.exists(p)) {
    val s = Files.walk(p)
    try s.sorted(Comparator.reverseOrder[Path]()).forEach(f => Files.delete(f))
    finally s.close()
  }
}
