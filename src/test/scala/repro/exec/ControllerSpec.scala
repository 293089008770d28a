package repro.exec

import java.nio.file.{Files, Path}
import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue, CountDownLatch, TimeUnit}
import scala.jdk.CollectionConverters._
import org.apache.spark.ActiveJobs
import org.apache.spark.sql.AnalysisException
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.datasources.{HadoopFsRelation, InsertIntoHadoopFsRelationCommand,
  LogicalRelation}
import org.apache.spark.sql.types.StructType
import org.apache.spark.sql.util.QueryExecutionListener
import repro.SparkSpec
import repro.core.{AlternatingOpt, Plan}
import repro.workload.{Metadata, MvSpec, TestData, TpcDsLite, Workload, Workloads}

class ControllerSpec extends SparkSpec {

  private lazy val ds = TestData.regular(spark)
  private lazy val dsp = TestData.partitioned(spark)
  private val w = Workloads.io2 // 19 nodes, two extract levels

  private def readMv(dir: java.nio.file.Path, name: String): Seq[String] =
    spark.read.parquet(dir.resolve(name).toString)
      .collect().map(_.toString).toSeq.sorted

  /** Temporary views named after one of `wl`'s MVs. */
  private def mvViews(wl: Workload): Seq[String] = {
    val names = wl.mvs.map(_.name.toLowerCase).toSet
    spark.catalog.listTables().collect().toSeq
      .filter(t => t.isTemporary && names(t.name.toLowerCase)).map(_.name)
  }

  /** The run totals are the per-node values summed in node order. */
  private def assertTotalsSumNodes(r: RunReport): Unit = {
    assert(r.tableReadMs == r.nodes.foldLeft(0.0)((s, n) => s + (n.baseReadMs + n.parentReadMs)))
    assert(r.computeMs == r.nodes.foldLeft(0.0)(_ + _.execMs))
    assert(r.writeForegroundMs == r.nodes.foldLeft(0.0)(_ + _.writeDelayMs))
  }

  /** io1 under no-opt, and its S/C plan at a budget that flags several MVs. */
  private lazy val io1Base: (RunReport, Path) = {
    val out = TestData.freshOutDir("io1-base")
    (new Controller(spark, ds, ExecConfig(0L, None, out)).runBaseline(Workloads.io1), out)
  }
  private lazy val io1Plan: Plan = {
    val plan = AlternatingOpt.solve(
      Metadata.dag(Workloads.io1, io1Base._1.sizes, NfsModel(1e9, 1e9, 0)), ds.totalBytes).plan
    assert(plan.flagged.nonEmpty, "expected a nonempty flagged set")
    plan
  }
  private def runIo1Sc(tag: String, nfs: Option[NfsModel] = None): (RunReport, Path) = {
    val out = TestData.freshOutDir(tag)
    (new Controller(spark, ds, ExecConfig(ds.totalBytes, nfs, out))
      .run(Workloads.io1, io1Plan, io1Base._1.sizes), out)
  }

  private lazy val baseline: (RunReport, java.nio.file.Path) = {
    val out = TestData.freshOutDir("base")
    val cfg = ExecConfig(0L, None, out)
    (new Controller(spark, ds, cfg).runBaseline(w), out)
  }

  test("baseline run materializes every MV with measurable size") {
    val (report, out) = baseline
    assert(report.nodes.size == w.mvs.size)
    w.mvs.foreach { mv =>
      assert(java.nio.file.Files.exists(out.resolve(mv.name)), mv.name)
      assert(report.sizes(mv.name) > 0, s"${mv.name} size")
    }
    assert(report.peakCatalogBytes == 0)
    assert(report.endToEndMs > 0)
  }

  test("optimized plan produces byte-identical MV contents (plan invariance)") {
    val (calReport, calOut) = baseline
    val nfs = NfsModel(readBytesPerMs = 1e9, writeBytesPerMs = 1e9, latencyMs = 0)
    val budget = ds.totalBytes // generous: flag many nodes
    val dag = Metadata.dag(w, calReport.sizes, nfs)
    val plan = AlternatingOpt.solve(dag, budget).plan
    assert(plan.flagged.nonEmpty, "expected a nonempty flagged set")
    val out = TestData.freshOutDir("opt")
    val report = new Controller(spark, ds, ExecConfig(budget, None, out))
      .run(w, plan, calReport.sizes)
    assert(report.peakCatalogBytes <= budget)
    w.mvs.foreach { mv =>
      assert(readMv(out, mv.name) == readMv(calOut, mv.name),
        s"${mv.name} differs between optimized and baseline runs")
    }
  }

  test("flagged nodes are also materialized to storage (SLA preserved)") {
    val (calReport, _) = baseline
    val out = TestData.freshOutDir("flag")
    val budget = ds.totalBytes
    val dag = Metadata.dag(w, calReport.sizes, NfsModel(1e9, 1e9, 0))
    val plan = AlternatingOpt.solve(dag, budget).plan
    new Controller(spark, ds, ExecConfig(budget, None, out)).run(w, plan, calReport.sizes)
    plan.flagged.foreach { i =>
      val name = w.mvs(i).name
      assert(spark.read.parquet(out.resolve(name).toString).count() >= 0)
    }
  }

  test("memory catalog accounting never exceeds the budget during a run") {
    val (calReport, _) = baseline
    val sizes = calReport.sizes
    // Pick a budget that admits only part of the nodes.
    val budget = sizes.values.toSeq.sorted.apply(sizes.size / 2) * 2
    val dag = Metadata.dag(w, sizes, NfsModel(1e9, 1e9, 0))
    val r = AlternatingOpt.solve(dag, budget)
    val out = TestData.freshOutDir("budget")
    val report = new Controller(spark, ds, ExecConfig(budget, None, out))
      .run(w, r.plan, sizes)
    assert(report.peakCatalogBytes <= budget)
    assert(report.peakCatalogBytes == Plan.peakMemoryUsage(dag, r.plan))
    assert(r.plan.flagged.nonEmpty)
  }

  test("an infeasible plan is rejected before any MV runs") {
    val (calReport, _) = baseline
    val sizes = calReport.sizes
    // The extract and its child are resident together at the child's
    // position; the budget fits either one alone.
    val extract = w.index("io2_store_extract")
    val child = w.structuralDag.children(extract).head
    val plan = Plan(w.structuralDag.topological, Set(extract, child))
    val budget = math.max(sizes(w.mvs(extract).name), sizes(w.mvs(child).name))
    assert(Plan.peakMemoryUsage(Metadata.dag(w, sizes, NfsModel(1, 1, 0)), plan) > budget)
    val out = TestData.freshOutDir("inf")
    intercept[IllegalArgumentException](
      new Controller(spark, ds, ExecConfig(budget, None, out)).run(w, plan, sizes))
    w.mvs.foreach(mv => assert(!Files.exists(out.resolve(mv.name)), s"${mv.name} was refreshed"))
  }

  test("unflagged nodes scan an in-memory relation exactly when a parent is flagged") {
    val (calReport, _) = baseline
    val sizes = calReport.sizes
    val dag = Metadata.dag(w, sizes, NfsModel(1e9, 1e9, 0))
    // A budget that admits only part of the nodes.
    val budget = sizes.values.toSeq.sorted.apply(sizes.size / 2) * 2
    val plan = AlternatingOpt.solve(dag, budget).plan
    val out = TestData.freshOutDir("inmem")
    // Output directory of each write → whether its executed plan scans a
    // cached relation.
    val scans = new ConcurrentHashMap[String, Boolean]()
    val sentinel = new CountDownLatch(1)
    object Aqe extends AdaptiveSparkPlanHelper
    val listener = new QueryExecutionListener {
      def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = qe.analyzed match {
        case cmd: InsertIntoHadoopFsRelationCommand =>
          scans.put(cmd.outputPath.toUri.getPath,
            Aqe.find(qe.executedPlan)(_.isInstanceOf[InMemoryTableScanExec]).isDefined)
        case _ => if (funcName == "collect") sentinel.countDown()
      }
      def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()
    }
    spark.listenerManager.register(listener)
    try {
      new Controller(spark, ds, ExecConfig(budget, None, out)).run(w, plan, sizes)
      // Listener events arrive in order; a sentinel action marks the end.
      spark.range(1).collect()
      assert(sentinel.await(30, TimeUnit.SECONDS), "listener saw no events")
    } finally spark.listenerManager.unregister(listener)
    val unflagged = w.mvs.indices.filterNot(plan.flagged)
    val hasFlaggedParent = unflagged.map(i => i -> dag.parents(i).exists(plan.flagged)).toMap
    assert(hasFlaggedParent.values.toSet == Set(true, false), "plan covers only one case")
    unflagged.foreach { i =>
      val name = w.mvs(i).name
      assert(Option(scans.get(out.resolve(name).toString)) == Some(hasFlaggedParent(i)), name)
    }
  }

  test("a flagged output leaves Spark's cache once its last child has run") {
    // rel_a's write charge lasts 3 s on the background channel, past the
    // runs of rel_b, its only child, and rel_c, which reads no MV.
    val wl = Workload("release", "release timing", "", Vector(
      MvSpec("rel_a", "SELECT d_date_sk, d_year FROM date_dim"),
      MvSpec("rel_b", "SELECT d_year, COUNT(*) AS cnt FROM rel_a GROUP BY d_year"),
      MvSpec("rel_c", "SELECT d_year, COUNT(*) AS cnt FROM date_dim GROUP BY d_year")))
    val sizes = Map("rel_a" -> 3000L, "rel_b" -> 1L, "rel_c" -> 1L)
    val nfs = NfsModel(readBytesPerMs = 1e9, writeBytesPerMs = 1.0, latencyMs = 0)
    val out = TestData.freshOutDir("release")
    val cPath = out.resolve("rel_c").toString
    // Whether Spark's cache is empty when rel_c's write has run.
    val emptyAtC = new ConcurrentLinkedQueue[Boolean]()
    val sentinel = new CountDownLatch(1)
    val listener = new QueryExecutionListener {
      def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = qe.analyzed match {
        case cmd: InsertIntoHadoopFsRelationCommand if cmd.outputPath.toUri.getPath == cPath =>
          emptyAtC.add(spark.sharedState.cacheManager.isEmpty)
        case _ => if (funcName == "collect") sentinel.countDown()
      }
      def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()
    }
    spark.catalog.clearCache()
    spark.listenerManager.register(listener)
    try {
      new Controller(spark, ds, ExecConfig(1L << 30, Some(nfs), out))
        .run(wl, Plan(Vector(0, 1, 2), Set(0)), sizes)
      spark.range(1).collect()
      assert(sentinel.await(30, TimeUnit.SECONDS), "listener saw no events")
    } finally spark.listenerManager.unregister(listener)
    assert(emptyAtC.asScala.toSeq == Seq(true), "rel_a was still cached during rel_c's write")
  }

  test("an S/C refresh runs no action beside its writes") {
    val actions = new ConcurrentLinkedQueue[String]()
    val listener = new QueryExecutionListener {
      def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = actions.add(funcName)
      def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = actions.add(funcName)
    }
    io1Plan // its no-opt calibration run stays out of the actions recorded
    spark.listenerManager.register(listener)
    try {
      runIo1Sc("io1-actions")
      // Listener events arrive in order; a sentinel action marks the end.
      spark.range(1).collect()
      val deadline = System.nanoTime() + 30_000_000_000L
      while (!actions.contains("collect") && System.nanoTime() < deadline) Thread.sleep(50)
    } finally spark.listenerManager.unregister(listener)
    assert(actions.contains("collect"), "listener saw no events")
    assert(!actions.contains("count"), s"actions: $actions")
  }

  test("a non-topological order is rejected before any MV runs") {
    // Reversed, the child would silently read the parent's output left in
    // `out` by the earlier run instead of the parent's fresh refresh.
    val chain = Workload("topo", "order check", "", Vector(
      MvSpec("topo_a", "SELECT d_date_sk, d_year FROM date_dim"),
      MvSpec("topo_b", "SELECT d_year, COUNT(*) AS cnt FROM topo_a GROUP BY d_year")))
    val out = TestData.freshOutDir("topo")
    val ctrl = new Controller(spark, ds, ExecConfig(0L, None, out))
    ctrl.runBaseline(chain)
    def written = chain.mvs.map(m => Files.getLastModifiedTime(out.resolve(m.name).resolve("_SUCCESS")))
    val before = written
    intercept[IllegalArgumentException](ctrl.run(chain, Plan(Vector(1, 0), Set.empty), Map.empty))
    assert(written == before, "an MV was refreshed under the rejected order")
  }

  test("flagged nodes require calibrated sizes") {
    val ctrl = new Controller(spark, ds, ExecConfig(1L << 30, None, TestData.freshOutDir("nosize")))
    assertThrows[IllegalArgumentException](
      ctrl.run(w, Plan(w.structuralDag.topological, Set(0)), Map.empty))
  }

  test("NFS delays appear in read and write totals") {
    val nfs = NfsModel(readBytesPerMs = 50_000, writeBytesPerMs = 25_000, latencyMs = 0.2)
    val out = TestData.freshOutDir("nfs")
    val report = new Controller(spark, ds, ExecConfig(0L, Some(nfs), out)).runBaseline(w)
    assert(report.tableReadMs > 0)
    assert(report.writeForegroundMs > 0)
    assert(report.queryMs == report.tableReadMs + report.computeMs)
    assertTotalsSumNodes(report)
  }

  test("short-circuiting removes parent read delays for flagged parents") {
    val (calReport, _) = baseline
    val sizes = calReport.sizes
    val nfs = NfsModel(readBytesPerMs = 50_000, writeBytesPerMs = 25_000, latencyMs = 0.2)
    val budget = ds.totalBytes
    val dag = Metadata.dag(w, sizes, nfs)
    val plan = AlternatingOpt.solve(dag, budget).plan
    val noOpt = new Controller(spark, ds, ExecConfig(0L, Some(nfs), TestData.freshOutDir("n1")))
      .runBaseline(w, sizes)
    val opt = new Controller(spark, ds, ExecConfig(budget, Some(nfs), TestData.freshOutDir("n2")))
      .run(w, plan, sizes)
    assert(opt.tableReadMs < noOpt.tableReadMs,
      f"optimized read ${opt.tableReadMs}%.0f not below ${noOpt.tableReadMs}%.0f")
    assert(opt.writeForegroundMs < noOpt.writeForegroundMs)
    Seq(noOpt, opt).foreach(assertTotalsSumNodes)
  }

  test("works on the partitioned dataset with partition-pruned extracts") {
    val out = TestData.freshOutDir("part")
    val report = new Controller(spark, dsp, ExecConfig(0L, None, out)).runBaseline(w)
    assert(report.dataset == "TPC-DSp")
    // Partitioned extracts keep only year 2000 rows → strictly smaller than
    // the same node on the regular dataset would be for multi-year extracts
    // (io2 extracts filter a single year on both, so just check integrity).
    w.mvs.foreach(mv => assert(report.sizes(mv.name) > 0, mv.name))
  }

  test("partitioned dataset shrinks multi-year extract intermediates (io1)") {
    val reg = new Controller(spark, ds, ExecConfig(0L, None, TestData.freshOutDir("i1r")))
      .runBaseline(Workloads.io1)
    val part = new Controller(spark, dsp, ExecConfig(0L, None, TestData.freshOutDir("i1p")))
      .runBaseline(Workloads.io1)
    TpcDsLite.Channels.foreach { c =>
      val name = s"io1_${c.key}_extract"
      assert(part.sizes(name) < reg.sizes(name),
        s"$name: ${part.sizes(name)} !< ${reg.sizes(name)}")
    }
  }

  test("a failed run leaves no cached DataFrames or background writes behind") {
    withTaskFailuresQuiet {
      // A flagged node's write fills its cache entry and its modeled
      // transfer is charged in the background; the next node fails.
      val faulty = Workload("fault", "fault injection", "", Vector(
        MvSpec("fault_a", "SELECT * FROM store_sales"),
        MvSpec("fault_b", "SELECT no_such_column FROM fault_a")))
      val out = TestData.freshOutDir("fault")
      spark.catalog.clearCache()
      intercept[AnalysisException](new Controller(spark, ds, ExecConfig(1L << 30, None, out))
        .run(faulty, Plan(Vector(0, 1), Set(0)), Map("fault_a" -> 1L)))
      assert(spark.sharedState.cacheManager.isEmpty)
      assert(ActiveJobs.ids(spark.sparkContext).isEmpty)
      assert(Files.exists(out.resolve("fault_a").resolve("_SUCCESS")))
      assert(mvViews(faulty).isEmpty, "MV temp views left behind")

      // A flagged node's own statement fails while its entry is created.
      val failing = Workload("fault2", "fault injection", "", Vector(
        MvSpec("fault_c", "SELECT assert_true(d_date_sk < 0) AS x FROM date_dim")))
      val e = intercept[RuntimeException](new Controller(spark, ds, ExecConfig(1L << 30, None, out))
        .run(failing, Plan(Vector(0), Set(0)), Map("fault_c" -> 1L)))
      assert(e.getMessage.contains("is not true"), e.getMessage)
      assert(spark.sharedState.cacheManager.isEmpty)
      assert(ActiveJobs.ids(spark.sparkContext).isEmpty)
      assert(mvViews(failing).isEmpty, "MV temp views left behind")

      // Under LRU, a cacheable statement is persisted before its write fails.
      val lruFailing = Workload("fault3", "fault injection", "", Vector(
        MvSpec("fault_d", "SELECT assert_true(d_date_sk < 0) AS x FROM date_dim"),
        MvSpec("fault_e", "SELECT x FROM fault_d")))
      val lruSizes = Map("fault_d" -> 1L, "fault_e" -> 1L)
      val e2 = intercept[RuntimeException](new Controller(spark, ds, ExecConfig(1L << 30, None, out))
        .runLru(lruFailing, lruSizes))
      assert(e2.getMessage.contains("is not true"), e2.getMessage)
      assert(spark.sharedState.cacheManager.isEmpty)
      assert(ActiveJobs.ids(spark.sparkContext).isEmpty)
      assert(mvViews(lruFailing).isEmpty, "MV temp views left behind")
    }
  }

  test("a finished run leaves no MV temp views behind") {
    val (calReport, _) = baseline
    // Other suites share this SparkSession and register MV views on purpose.
    mvViews(w).foreach(spark.catalog.dropTempView)
    val budget = ds.totalBytes
    val plan = AlternatingOpt.solve(Metadata.dag(w, calReport.sizes, NfsModel(1e9, 1e9, 0)), budget).plan
    assert(plan.flagged.nonEmpty)
    new Controller(spark, ds, ExecConfig(budget, None, TestData.freshOutDir("views")))
      .run(w, plan, calReport.sizes)
    assert(mvViews(w).isEmpty, "Controller left MV temp views behind")
    new Controller(spark, ds, ExecConfig(budget, None, TestData.freshOutDir("views-lru")))
      .runLru(w, calReport.sizes)
    assert(mvViews(w).isEmpty, "the LRU run left MV temp views behind")
  }

  test("flagged MVs are written in as many files as under no-opt") {
    // A flagged MV is written from its cache entry: one file per cached
    // partition. Cached before AQE coalesced its shuffle partitions, it
    // would have up to one per spark.sql.shuffle.partitions.
    val (_, noOptOut) = io1Base
    val (_, scOut) = runIo1Sc("io1-files")
    def partFiles(dir: Path, name: String): Int = {
      val s = Files.list(dir.resolve(name))
      try s.iterator.asScala.count(_.getFileName.toString.startsWith("part-"))
      finally s.close()
    }
    io1Plan.flagged.foreach { i =>
      val name = Workloads.io1.mvs(i).name
      assert(partFiles(scOut, name) == partFiles(noOptOut, name), name)
    }
  }

  /** The Spark jobs of an io1 S/C refresh with modeled delays, whose
    * background channel sleeps while later MVs run, and the job description
    * the driver thread holds after it.
    */
  private lazy val io1DelayedJobs: (RunReport, String, Vector[SparkSpec.Job]) = {
    io1Plan // its no-opt calibration run stays out of the jobs counted
    val ((report, driverDesc), jobs) = withJobs {
      val (r, _) = runIo1Sc("io1-jobs", Some(NfsModel.scaledTo(ds.totalBytes, fullReadSeconds = 1.0)))
      (r, spark.sparkContext.getLocalProperty("spark.job.description"))
    }
    (report, driverDesc, jobs)
  }

  test("every Spark job of a run names its method and MV") {
    val names = Workloads.io1.mvs.map(_.name).toSet
    val (_, driverDesc, jobs) = io1DelayedJobs
    assert(driverDesc == null, "the driver thread kept a job description")
    assert(jobs.nonEmpty)
    jobs.map(_.description).foreach { d =>
      assert(d.exists(s => s.startsWith("sc ") && names(s.drop(3))), d)
    }
  }

  test("no two MVs' Spark jobs of an S/C refresh run at the same time") {
    val (report, _, jobs) = io1DelayedJobs
    assert(report.writeBackgroundMs > 0, "no charge was slept on the background channel")
    // AQE submits an MV's shuffle map stages as jobs of their own, so the
    // jobs of one statement may overlap; those of different MVs may not.
    val spans = jobs.groupBy(_.description).toVector.map { case (mv, js) =>
      (js.map(_.startMs).min, js.map(_.endMs).max, mv)
    }.sorted
    assert(spans.size == Workloads.io1.mvs.size)
    spans.zip(spans.tail).foreach { case ((_, end, a), (start, _, b)) =>
      assert(end <= start, s"$a ran until $end, after $b started at $start")
    }
  }

  test("parents read from Parquet are bound with the schema Spark infers") {
    // Relation schema of each parent read under out, by output path.
    val bound = new ConcurrentHashMap[String, StructType]()
    val sentinel = new CountDownLatch(1)
    val listener = new QueryExecutionListener {
      def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = qe.analyzed match {
        case cmd: InsertIntoHadoopFsRelationCommand =>
          cmd.query.collect { case lr: LogicalRelation => lr }.foreach { lr =>
            lr.relation match {
              case h: HadoopFsRelation =>
                h.location.rootPaths.foreach(p => bound.put(p.toUri.getPath, lr.schema))
              case _ =>
            }
          }
        case _ => if (funcName == "collect") sentinel.countDown()
      }
      def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()
    }
    val out = TestData.freshOutDir("io1-schemas")
    spark.listenerManager.register(listener)
    try {
      new Controller(spark, ds, ExecConfig(0L, None, out)).runBaseline(Workloads.io1)
      spark.range(1).collect()
      assert(sentinel.await(30, TimeUnit.SECONDS), "listener saw no events")
    } finally spark.listenerManager.unregister(listener)
    val sdag = Workloads.io1.structuralDag
    val parents = Workloads.io1.mvs.indices.filter(sdag.children(_).nonEmpty).map(Workloads.io1.mvs(_).name)
    assert(parents.nonEmpty)
    parents.foreach { name =>
      val path = out.resolve(name).toString
      assert(Option(bound.get(path)) == Some(spark.read.parquet(path).schema), name)
    }
  }

  test("a flagged statement failing in a shuffle stage leaves nothing behind") {
    withTaskFailuresQuiet {
      // The GROUP BY's map stage evaluates the assertion: the statement fails
      // before its Memory-Catalog entry is persisted.
      val shuffled = Workload("fault4", "fault injection", "", Vector(
        MvSpec("fault_f", "SELECT x, COUNT(*) AS cnt FROM " +
          "(SELECT assert_true(d_date_sk < 0) AS x FROM date_dim) t GROUP BY x"),
        MvSpec("fault_g", "SELECT cnt FROM fault_f")))
      spark.catalog.clearCache()
      val e = intercept[RuntimeException](
        new Controller(spark, ds, ExecConfig(1L << 30, None, TestData.freshOutDir("fault4")))
          .run(shuffled, Plan(Vector(0, 1), Set(0)), Map("fault_f" -> 1L)))
      assert(e.getMessage.contains("is not true"), e.getMessage)
      assert(spark.sharedState.cacheManager.isEmpty)
      assert(spark.sparkContext.getPersistentRDDs.isEmpty)
      assert(ActiveJobs.ids(spark.sparkContext).isEmpty)
      assert(mvViews(shuffled).isEmpty, "MV temp views left behind")
    }
  }

  test("a charged sleep lasts the full charge") {
    // 20 charges of 1.7 ms each: truncation to whole milliseconds would
    // sleep 20 ms.
    val t0 = System.nanoTime()
    (1 to 20).foreach(_ => Controller.sleep(1.7))
    assert((System.nanoTime() - t0) / 1e6 >= 34.0)
  }

  test("a run's modeled charges fit in its measured wall time") {
    val (calReport, _) = baseline
    val nfs = NfsModel(readBytesPerMs = 50_000, writeBytesPerMs = 25_000, latencyMs = 0.3)
    val budget = ds.totalBytes
    val plan = AlternatingOpt.solve(Metadata.dag(w, calReport.sizes, nfs), budget).plan
    assert(plan.flagged.nonEmpty)
    val r = new Controller(spark, ds, ExecConfig(budget, Some(nfs), TestData.freshOutDir("wall")))
      .run(w, plan, calReport.sizes)
    // The driver thread sleeps the reads and foreground writes and runs the
    // statements one after another; the writer thread sleeps the rest.
    assert(r.tableReadMs + r.computeMs + r.writeForegroundMs <= r.endToEndMs)
    assert(r.writeBackgroundMs > 0 && r.writeBackgroundMs <= r.endToEndMs)
  }
}
