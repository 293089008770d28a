package perfbench

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession
import repro.core.{Dag, Plan}
import repro.sim.Simulator
import repro.workload.Workload
import perfbench.PerfBench.Args
import perfbench.RefreshPhase.{Sample, timed}

/** What one run prints: operation counts, report lines and its metrics. */
final case class RunResult(attempted: Int, failed: Int, metrics: Metrics, report: Seq[String])

/** The metric names every workload reports, with their units.
  *
  * Every workload reports every name: the end-to-end set when untraced, the
  * per-layer set when traced. A layer a workload does not run (Spark on
  * plan-dag100, DagGen on the refresh workloads) reports 0.
  */
object MetricSet {
  val endToEnd: Seq[(String, String)] = Seq("sc_s" -> "s", "plan_score" -> "score", "setup_s" -> "s")

  private val execNames = Seq(
    "parent_read_sleep_s" -> "s", "base_read_sleep_s" -> "s", "flagged_exec_s" -> "s",
    "unflagged_exec_s" -> "s", "fg_write_sleep_s" -> "s", "bg_write_sleep_s" -> "s",
    "unattributed_s" -> "s")
  private val sparkNames = Seq(
    "spark_jobs" -> "count", "task_cpu_s" -> "s", "task_run_s" -> "s", "shuffle_mb" -> "MB",
    "input_mb" -> "MB")

  val perLayer: Seq[(String, String)] =
    Seq("trace_overhead_pct" -> "%") ++
    Seq("plan_ms_p50" -> "ms", "plan_ms_p90" -> "ms", "solve_ms" -> "ms", "nodes_ms" -> "ms",
      "constraints_ms" -> "ms", "order_ms" -> "ms", "other_ms" -> "ms", "iterations" -> "count",
      "constraint_rows" -> "count", "mkp_items" -> "count", "flagged" -> "count",
      "budget_use" -> "ratio")
      .map { case (n, u) => s"core.$n" -> u } ++
    Seq("exec.refresh_s" -> "s", "exec.noopt_refresh_s" -> "s", "exec.peak_cache_mb" -> "MB") ++
    execNames.map { case (n, u) => s"exec.$n" -> u } ++
    Seq("exec.catalog_hit_ratio" -> "ratio", "exec.flagged_nodes" -> "count",
      "exec.accounted_peak_mb" -> "MB", "exec.cache_to_accounted" -> "ratio") ++
    sparkNames.map { case (n, u) => s"exec.$n" -> u } ++
    Seq("jvm.gc_s" -> "s") ++
    execNames.map { case (n, u) => s"exec.noopt.$n" -> u } ++
    sparkNames.map { case (n, u) => s"exec.noopt.$n" -> u } ++
    Seq("jvm.noopt.gc_s" -> "s",
      "sim.predicted_refresh_s" -> "s", "sim.error_pct" -> "%", "sim.noopt_error_pct" -> "%",
      "sim.node_err_ms_p50" -> "ms",
      "workload.datagen_s" -> "s", "workload.calibrate_s" -> "s", "workload.dataset_mb" -> "MB",
      "workload.daggen_ms" -> "ms")

  /** Check `m` against the set for `trace`; names of layers absent from the
    * workload, listed in `idle`, are filled with 0.
    */
  def complete(m: Metrics, trace: Boolean, idle: String => Boolean): Metrics = {
    val expected = if (trace) perLayer else endToEnd
    val out = new Metrics
    expected.foreach { case (name, unit) =>
      m.get(name) match {
        case Some((v, u)) => require(u == unit, s"$name has unit $u, expected $unit"); out.put(name, v, u)
        case None => require(idle(name), s"metric $name was not measured"); out.put(name, 0.0, unit)
      }
    }
    val extra = m.names.toSet -- expected.map(_._1)
    require(extra.isEmpty, s"unlisted metrics: ${extra.mkString(", ")}")
    out
  }
}

private object Clock {
  def now: Long = System.nanoTime()
  def since(t0: Long): Double = (now - t0) / 1e9
}
import Clock._

/** A refresh workload run (refresh-io, refresh-compute). */
final class RefreshRun(spark: SparkSession, w: Workload, a: Args, startupS: Double) {
  private val MB = 1e6
  private def log(line: String): Unit = println(line)

  def execute(): RunResult = {
    val t0 = now
    val phase = new RefreshPhase(spark, w, a.work.resolve("refresh"), log)
    (0 until 500).foreach(_ => PlanPhase.solve(phase.dag, phase.budget)) // planner JIT warm-up
    val warmupS = phase.warmUp()
    val setupS = startupS + since(t0)
    log(f"set-up $setupS%.3f s: start $startupS%.3f s, datagen ${phase.datagenS}%.3f s, " +
      f"calibration ${phase.calibrateS}%.3f s, reference checksums ${phase.checksumS}%.3f s, " +
      f"S/C warm-up $warmupS%.3f s")

    // Measured window: S/C refreshes while another fits into --seconds (at
    // least one). A traced run then adds a traced S/C and no-opt pair,
    // alternating by seed which goes first.
    val samples = ArrayBuffer.empty[Sample]
    val w0 = now
    var lastS = 0.0
    while (samples.isEmpty || (!a.trace && since(w0) + lastS <= a.seconds)) {
      val r0 = now
      samples += phase.refresh("sc", s"r${samples.size}", traced = false, None)
      lastS = since(r0)
    }
    // Planning time of this DAG with Spark idle: each sample is the fastest
    // of 10 solves, and every plan must equal the set-up plan.
    var planErrors = 0
    val planMs = (0 until Settings.planRepeats).map { _ =>
      val runs = (0 until 10).map(_ => PlanPhase.solve(phase.dag, phase.budget))
      if (runs.exists(o => !o.feasible || o.plan != phase.scPlan)) planErrors += 1
      runs.map(_.ms).min
    }
    if (planErrors > 0) log(s"error: $planErrors plan samples infeasible or different from the set-up plan")

    val sc = samples.map(_.wallS).toSeq
    val report = ArrayBuffer(
      s"refresh_s (S/C, planning included): ${Stats.describe(sc)}",
      s"peak_cache_mb (S/C): ${Stats.describe(samples.map(_.peakCacheBytes / MB).toSeq)}",
      s"plan_ms (this DAG, ${planMs.size} samples, each the fastest of 10 solves): " +
        s"${Stats.describe(planMs)}, p90 ${Stats.quantile(planMs, 0.9)}",
      s"plan: ${phase.scPlan.flagged.size} of ${w.mvs.size} MVs flagged, M = ${phase.budget} B, " +
        f"score ${phase.scPlan.totalSpeedup(phase.dag)}%.1f",
    )

    val metrics = new Metrics
    var attempted = samples.size + planMs.size
    var failed = samples.count(_.failed) + planErrors
    if (!a.trace) {
      metrics.put("sc_s", Stats.median(sc), "s")
      metrics.put("plan_score", phase.scPlan.totalSpeedup(phase.dag), "score")
      metrics.put("setup_s", setupS, "s")
    } else {
      // Traced pair: listener and GC beans on, planning through traced solvers.
      val listener = new WorkListener
      spark.sparkContext.addSparkListener(listener)
      val order = if (a.seed % 2 == 0) Seq("sc", "no-opt") else Seq("no-opt", "sc")
      val traced =
        try order.map(m => m -> phase.refresh(m, "traced", traced = true, Some(listener))).toMap
        finally spark.sparkContext.removeSparkListener(listener)
      attempted += traced.size
      failed += traced.values.count(_.failed)
      val (tsc, tno) = (traced("sc"), traced("no-opt"))
      report ++= Seq(
        f"traced: refresh_s ${tsc.wallS}%.4f, noopt_refresh_s ${tno.wallS}%.4f, " +
          f"noopt_refresh_s / refresh_s = ${tno.wallS / tsc.wallS}%.3f (base: the traced pair)")
      metrics.put("trace_overhead_pct", (tsc.wallS / Stats.median(sc) - 1) * 100, "%")
      metrics.put("core.plan_ms_p50", Stats.median(planMs), "ms")
      metrics.put("core.plan_ms_p90", Stats.quantile(planMs, 0.9), "ms")
      tsc.core.foreach(c => PlanPhase.report(Seq(c), metrics))
      metrics.put("exec.refresh_s", tsc.wallS, "s")
      metrics.put("exec.noopt_refresh_s", tno.wallS, "s")
      metrics.put("exec.peak_cache_mb", tsc.peakCacheBytes / MB, "MB")
      execMetrics("exec.", tsc, phase, metrics)
      execMetrics("exec.noopt.", tno, phase, metrics)
      simMetrics(phase, traced, metrics)
      metrics.put("workload.datagen_s", phase.datagenS, "s")
      metrics.put("workload.calibrate_s", phase.calibrateS, "s")
      metrics.put("workload.dataset_mb", phase.dataset.totalBytes / MB, "MB")
    }
    // A traced refresh that threw (counted as failed) leaves its layers unmeasured.
    val idle = (n: String) => n == "workload.daggen_ms" || (a.trace && failed > 0)
    RunResult(attempted, failed, MetricSet.complete(metrics, a.trace, idle), report.toSeq)
  }

  private def execMetrics(prefix: String, t: Sample, phase: RefreshPhase, out: Metrics): Unit =
    t.report.foreach { r =>
      val nodes = r.nodes
      val attributedMs = nodes.map(n => n.baseReadMs + n.parentReadMs + n.execMs + n.writeDelayMs).sum
      out.put(prefix + "parent_read_sleep_s", nodes.map(_.parentReadMs).sum / 1e3, "s")
      out.put(prefix + "base_read_sleep_s", nodes.map(_.baseReadMs).sum / 1e3, "s")
      out.put(prefix + "flagged_exec_s", nodes.filter(_.flagged).map(_.execMs).sum / 1e3, "s")
      out.put(prefix + "unflagged_exec_s", nodes.filterNot(_.flagged).map(_.execMs).sum / 1e3, "s")
      out.put(prefix + "fg_write_sleep_s", r.writeForegroundMs / 1e3, "s")
      out.put(prefix + "bg_write_sleep_s", r.writeBackgroundMs / 1e3, "s")
      out.put(prefix + "unattributed_s", (r.endToEndMs - attributedMs) / 1e3, "s")
      if (t.method == "sc") {
        out.put(prefix + "catalog_hit_ratio", phase.catalogHitRatio, "ratio")
        out.put(prefix + "flagged_nodes", nodes.count(_.flagged).toDouble, "count")
        out.put(prefix + "accounted_peak_mb", r.peakCatalogBytes / MB, "MB")
        out.put(prefix + "cache_to_accounted",
          if (r.peakCatalogBytes == 0) 0.0 else t.peakCacheBytes.toDouble / r.peakCatalogBytes, "ratio")
      }
      t.work.foreach { wk =>
        out.put(prefix + "spark_jobs", wk.jobs.toDouble, "count")
        out.put(prefix + "task_cpu_s", wk.cpuNs / 1e9, "s")
        out.put(prefix + "task_run_s", wk.runMs / 1e3, "s")
        out.put(prefix + "shuffle_mb", wk.shuffleB / MB, "MB")
        out.put(prefix + "input_mb", wk.inputB / MB, "MB")
        out.put(prefix.replace("exec.", "jvm.") + "gc_s", wk.gcMs / 1e3, "s")
      }
    }

  /** Timeline-simulator prediction against the traced refreshes. */
  private def simMetrics(phase: RefreshPhase, traced: Map[String, Sample], out: Metrics): Unit = {
    val cost = phase.nfs.toCostModel()
    def predict(m: String) = Simulator.simulate(phase.dag, phase.planFor(m), cost, phase.simInputs)
    val scPred = predict("sc")
    out.put("sim.predicted_refresh_s", scPred.endToEndMs / 1e3, "s")
    Seq("sc" -> "sim.error_pct", "no-opt" -> "sim.noopt_error_pct").foreach { case (m, name) =>
      traced(m).report.foreach { r =>
        out.put(name, math.abs(predict(m).endToEndMs - r.endToEndMs) / r.endToEndMs * 100, "%")
      }
    }
    traced("sc").report.foreach { r =>
      val predicted = scPred.nodeEndMs.zip(0.0 +: scPred.nodeEndMs).map { case (e, b) => e - b }
      val measured = r.nodes.map(n => n.baseReadMs + n.parentReadMs + n.execMs + n.writeDelayMs)
      out.put("sim.node_err_ms_p50",
        Stats.median(predicted.zip(measured).map { case (p, m) => math.abs(p - m) }), "ms")
    }
  }
}

/** plan-dag100: S/C's solvers on DagGen DAGs, single-threaded, no Spark.
  * The window makes two passes over the DAG set, and more while another
  * fits into --seconds.
  *
  * The host's speed swings by up to 2x for stretches from a tenth of a
  * second to minutes, longer than a run. So every solve is preceded by
  * `PlanPhase.probe`, and `sc_s` uses each solve's time at nominal host
  * speed, solve ms × probeNominalMs / probe ms. A DAG's time is its fastest
  * pass. The raw times are reported as `core.plan_ms_*`.
  */
final class PlanRun(a: Args) {
  private def log(line: String): Unit = println(line)

  def execute(): RunResult = {
    val t0 = now
    val (seeds, warmSeeds) = PerfBench.planSeeds(a.seed, Settings.planDags)
    val genMs = ArrayBuffer.empty[Double]
    val dags: Seq[Dag] = seeds.map { sd =>
      val (d, secs) = timed(PerfBench.genDag(Settings.planNodes, sd))
      genMs += secs * 1e3
      d
    }
    warmSeeds.foreach(sd =>
      PlanPhase.solve(PerfBench.genDag(Settings.planNodes, sd), Settings.planBudgetBytes))
    val setupS = since(t0)
    log(f"set-up $setupS%.3f s: DagGen ${genMs.sum / 1e3}%.3f s for ${dags.size} DAGs, " +
      s"warm-up on ${warmSeeds.size} other DAGs")

    var attempted, failed = 0
    def fail(i: Int, why: String): Unit = { failed += 1; log(s"error: DAG seed ${seeds(i)}: $why") }
    val times = Array.fill(dags.size)(ArrayBuffer.empty[Double])
    val nominal = Array.fill(dags.size)(ArrayBuffer.empty[Double])
    val probes = ArrayBuffer.empty[Double]
    val plans = Array.fill[Option[Plan]](dags.size)(None)
    val w0 = now
    var passS = 0.0
    var pass = 0
    while (pass < 2 || since(w0) + passS <= a.seconds) {
      val p0 = now
      dags.indices.foreach { i =>
        attempted += 1
        try {
          val probeMs = PlanPhase.probe()
          val o = PlanPhase.solve(dags(i), Settings.planBudgetBytes)
          times(i) += o.ms
          nominal(i) += o.ms * Settings.probeNominalMs / probeMs
          probes += probeMs
          if (!o.feasible) fail(i, "infeasible plan")
          else if (plans(i).exists(_ != o.plan)) fail(i, "plan changed between passes")
          plans(i) = Some(o.plan)
        } catch { case NonFatal(e) => fail(i, e.toString) }
      }
      passS = since(p0)
      pass += 1
    }
    val perDag = times.toSeq.filter(_.nonEmpty).map(_.min)
    val perDagNominal = nominal.toSeq.filter(_.nonEmpty).map(_.min)
    val passMedians = (0 until pass).map(k => Stats.median(times.toSeq.filter(_.size > k).map(_(k))))
    val score = dags.indices.flatMap(i => plans(i).map(_.totalSpeedup(dags(i)))).sum
    val report = Seq(
      s"plan_ms per DAG (fastest of $pass passes): ${Stats.describe(perDag)}, " +
        f"p90 ${Stats.quantile(perDag, 0.9)}%.4f",
      s"plan_ms median of each pass: ${passMedians.map(x => f"$x%.3f").mkString(", ")}",
      s"host-speed probe ms: ${Stats.describe(probes.toSeq)}, nominal ${Settings.probeNominalMs}",
      s"plan_ms at nominal host speed: ${Stats.describe(perDagNominal)}",
      f"time to plan the ${perDag.size} DAGs: ${perDag.sum / 1e3}%.4f s",
      f"plan_score: $score%.1f (sum over DAGs of the flagged set's speedup score)",
    )

    val metrics = new Metrics
    if (!a.trace) {
      metrics.put("sc_s", Stats.median(perDagNominal) / 1e3, "s")
      metrics.put("plan_score", score, "score")
      metrics.put("setup_s", setupS, "s")
    } else {
      // Traced pass: each DAG solved untraced, then traced; the overhead
      // compares the two medians.
      val pairs = dags.indices.flatMap { i =>
        attempted += 1
        try {
          val o = PlanPhase.solve(dags(i), Settings.planBudgetBytes)
          val (p, t) = PlanPhase.solveTraced(dags(i), Settings.planBudgetBytes)
          if (!plans(i).contains(p)) fail(i, "traced plan differs from the untraced plan")
          Some(o.ms -> t)
        } catch { case NonFatal(e) => fail(i, e.toString); None }
      }
      val traces = pairs.map(_._2)
      metrics.put("trace_overhead_pct",
        (Stats.median(traces.map(_.solveMs)) / Stats.median(pairs.map(_._1)) - 1) * 100, "%")
      metrics.put("core.plan_ms_p50", Stats.median(perDag), "ms")
      metrics.put("core.plan_ms_p90", Stats.quantile(perDag, 0.9), "ms")
      PlanPhase.report(traces, metrics)
      metrics.put("workload.daggen_ms", Stats.median(genMs.toSeq), "ms")
    }
    val idle = (n: String) => Seq("exec.", "jvm.", "sim.", "workload.").exists(n.startsWith)
    RunResult(attempted, failed, MetricSet.complete(metrics, a.trace, idle), report)
  }
}
