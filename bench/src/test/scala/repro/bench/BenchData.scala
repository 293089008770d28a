package repro.bench

import java.nio.file.{Files, Path, Paths}
import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.{Methods, SparkSpec}
import repro.core.Dag
import repro.exec.{Controller, ExecConfig, NfsModel, RunReport}
import repro.sim.Simulator
import repro.workload.{Dataset, Metadata, TestData, TpcDsLite, Workload, Workloads}

/** Shared benchmark fixture: one generated TPC-DS-lite dataset pair per
  * bench JVM at SF 0.01, per-workload calibrations, and memoized method
  * runs so Table III, Table IV and the Fig 9 comparison reuse the same
  * executions.
  *
  * The modeled NFS scans the whole dataset in `NfsModel.scaledTo`'s default
  * 8 s. Tables are written to REPRO_RESULTS_DIR, which build.sbt sets to
  * this checkout's `results/` unless it is already set.
  */
object BenchData {
  val sf: Double = 0.01

  lazy val spark: SparkSession = SparkSpec.shared
  lazy val dir: Path = Files.createDirectories(TestData.root.resolve("bench"))
  lazy val resultsDir: Path = {
    val p = Paths.get(sys.env("REPRO_RESULTS_DIR"))
    Files.createDirectories(p); p
  }

  lazy val regular: Dataset = TpcDsLite.generate(spark, dir.resolve("reg"), sf, partitioned = false)
  lazy val partitioned: Dataset = TpcDsLite.generate(spark, dir.resolve("part"), sf, partitioned = true)

  def nfs(ds: Dataset): NfsModel = NfsModel.scaledTo(ds.totalBytes)

  /** Memory Catalog bytes for a paper-side percentage label. */
  def budget(ds: Dataset, paperPct: Double): Long = Methods.budget(ds.totalBytes, paperPct)

  private val calCache = mutable.Map.empty[(String, String), Metadata.Calibration]

  /** Calibration = an untimed, delay-free no-opt refresh: sizes and
    * [[simInputs]] only, no table reports it.
    */
  def calibration(ds: Dataset, w: Workload): Metadata.Calibration = synchronized {
    calCache.getOrElseUpdate((ds.name, w.key), {
      val out = Files.createTempDirectory(dir, s"cal-${ds.name}-${w.key}")
      Metadata.calibrate(spark, ds, w, ExecConfig(0L, None, out))
    })
  }

  def dag(ds: Dataset, w: Workload): Dag =
    Metadata.dag(w, calibration(ds, w).sizes, nfs(ds), Methods.MemCreateMs)

  private val runCache = mutable.Map.empty[(String, String, String, Double), RunReport]

  /** Execute (memoized), with NFS delays, one workload with one method at `pct`% catalog. */
  def run(ds: Dataset, w: Workload, method: String, pct: Double): RunReport = synchronized {
    runCache.getOrElseUpdate((ds.name, w.key, method, pct), {
      val out = Files.createTempDirectory(dir, s"run-${ds.name}-${w.key}-$method-$pct")
      val cfg = ExecConfig(budget(ds, pct), Some(nfs(ds)), out)
      Methods.run(method, new Controller(spark, ds, cfg), w, dag(ds, w), cfg.memoryCatalogBytes,
        calibration(ds, w).sizes)
    })
  }

  /** Sum of a metric over all five workloads for a method/pct. */
  def total(ds: Dataset, method: String, pct: Double)(metric: RunReport => Double): Double =
    Workloads.all.map(w => metric(run(ds, w, method, pct))).sum

  /** Simulator inputs derived from a workload's calibration. */
  def simInputs(ds: Dataset, w: Workload): Simulator.Inputs = {
    val cal = calibration(ds, w)
    Simulator.Inputs(
      sizes = w.mvs.map(m => cal.sizes(m.name)).toVector,
      computeMs = w.mvs.map(m => cal.report.execMsByName(m.name)).toVector,
      baseReadBytes = w.mvs.map(ds.baseReadBytes(_).sum),
      memCreateMs = Methods.MemCreateMs,
    )
  }

  /** Persist a table artifact under results/ and echo it to the test log. */
  def record(name: String, content: String): Unit = {
    Files.write(resultsDir.resolve(name), content.getBytes("UTF-8"))
    println(s"\n===== $name =====\n$content")
  }
}
