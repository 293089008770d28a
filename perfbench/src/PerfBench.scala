package perfbench

import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.SparkSession
import repro.workload.{DagGen, Workload, Workloads}

/** Fixed settings of every run; printed beside the numbers. The data and
  * refresh settings are those of the `bench/` suites.
  */
object Settings {
  val sf = 0.01
  val fullScanSeconds = 8.0
  val regimeFactor = 8.0
  val memCreateMs = 400.0
  val catalogPct = 1.6
  val cores: Int = math.min(4, Runtime.getRuntime.availableProcessors)
  val shufflePartitions = 8
  val planNodes = 100
  val planDags = 100
  val planBudgetBytes: Long = 16L << 30
  val planRepeats = 100
  /** `PlanPhase.probe` at full speed on a 4-vCPU x86-64 VM; see PlanRun. */
  val probeNominalMs = 0.085
}

/** Entry point: `PerfBench --workload W --seed N --seconds S --trace 0|1 --work DIR`.
  *
  * Prints a report and, as its last line, one JSON object with `correct`,
  * `attempted`, `failed` and `metrics`: the end-to-end metrics when
  * untraced, the per-layer metrics when traced.
  */
object PerfBench {

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, work: Path)

  private def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, sys.error(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toInt, need("trace") == "1",
      Paths.get(need("work")).toAbsolutePath)
  }

  val refreshWorkloads: Map[String, Workload] =
    Map("refresh-io" -> Workloads.io1, "refresh-compute" -> Workloads.compute2)
  val planWorkload = "plan-dag100"

  def main(argv: Array[String]): Unit = {
    val t0 = System.nanoTime()
    val a = parse(argv)
    Files.createDirectories(a.work)
    printSettings(a)
    val result = refreshWorkloads.get(a.workload) match {
      case Some(w) =>
        val spark = startSpark(a)
        try {
          println(s"spark: ${spark.version} master=${spark.sparkContext.master} " +
            s"shuffle_partitions=${spark.conf.get("spark.sql.shuffle.partitions")}")
          new RefreshRun(spark, w, a, (System.nanoTime() - t0) / 1e9).execute()
        } finally spark.stop()
      case None if a.workload == planWorkload => new PlanRun(a).execute()
      case None => sys.error(s"unknown workload ${a.workload}")
    }
    println("")
    println(s"attempted ${result.attempted} failed ${result.failed} " +
      f"error_rate ${result.failed.toDouble / result.attempted}%.4f")
    result.report.foreach(println)
    println(if (a.trace) "per-layer metrics (traced run):" else "end-to-end metrics:")
    result.metrics.lines.foreach(println)
    println(s"""{"correct": ${result.failed == 0}, "attempted": ${result.attempted}, """ +
      s""""failed": ${result.failed}, "metrics": ${result.metrics.toJson}}""")
  }

  private def startSpark(a: Args): SparkSession = {
    val spark = SparkSession.builder
      .master(s"local[${Settings.cores}]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", Settings.shufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.scheduler.mode", "FAIR")
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.warehouse.dir", a.work.resolve("warehouse").toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    spark
  }

  private def printSettings(a: Args): Unit = {
    import Settings._
    val rt = Runtime.getRuntime
    println(s"perfbench workload=${a.workload} seed=${a.seed} seconds=${a.seconds} trace=${if (a.trace) 1 else 0}")
    println(s"settings: sf=$sf full_scan_s=$fullScanSeconds regime_factor=$regimeFactor " +
      s"mem_create_ms=$memCreateMs catalog_label_pct=$catalogPct cores=$cores " +
      s"shuffle_partitions=$shufflePartitions plan_dags=${planDags}x$planNodes " +
      s"plan_budget_gb=${planBudgetBytes >> 30} plan_repeats=$planRepeats")
    println(s"platform: nproc=${rt.availableProcessors} driver_heap_mb=${rt.maxMemory >> 20} " +
      s"scala=${scala.util.Properties.versionNumberString} jdk=${System.getProperty("java.version")}")
    println("note: TPC-DS-lite data uses fixed generator seeds; --seed varies the DagGen DAGs " +
      "and which method of the traced refresh pair goes first")
  }

  /** DagGen seeds of one run: the measured DAGs and a disjoint warm-up set. */
  def planSeeds(seed: Long, count: Int): (Seq[Long], Seq[Long]) = {
    val base = seed * 10_000L
    ((0 until count).map(base + _), (0 until 20).map(base + 5_000 + _))
  }

  def genDag(n: Int, seed: Long) = DagGen.generate(DagGen.Params(n, seed = seed)).dag
}
