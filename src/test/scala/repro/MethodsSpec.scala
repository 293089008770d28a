package repro

import java.nio.file.{Files, Path}
import repro.exec.{Controller, ExecConfig, NfsModel, NodeReport, RunReport}
import repro.workload.{Metadata, MvSpec, TestData, Workload}

class MethodsSpec extends SparkSpec {

  private lazy val ds = TestData.regular(spark)
  private val nfs = NfsModel(readBytesPerMs = 50_000, writeBytesPerMs = 25_000, latencyMs = 0.2)

  /** One parent read by two children. */
  private val w = Workload("methods", "Methods.run check", "", Vector(
    MvSpec("methods_a", "SELECT d_date_sk, d_year, d_moy FROM date_dim"),
    MvSpec("methods_b", "SELECT d_year, COUNT(*) AS cnt FROM methods_a GROUP BY d_year"),
    MvSpec("methods_c", "SELECT d_moy, COUNT(*) AS cnt FROM methods_a GROUP BY d_moy")))

  private lazy val sizes = Metadata.calibrate(spark, ds, w,
    ExecConfig(0L, None, TestData.freshOutDir("methods-cal"))).sizes
  private lazy val dag = Metadata.dag(w, sizes, nfs)
  private lazy val budget = ds.totalBytes

  private def controller(out: Path) = new Controller(spark, ds, ExecConfig(budget, Some(nfs), out))

  private def run(method: String, out: Path): RunReport =
    Methods.run(method, controller(out), w, dag, budget, sizes)

  private def readMv(dir: Path, name: String): Seq[String] =
    spark.read.parquet(dir.resolve(name).toString).collect().map(_.toString).toSeq.sorted

  /** A node's modeled charges and flag: equal for equal runs, unlike its times. */
  private def charges(r: RunReport): Vector[(String, Boolean, Long, Double, Double, Double)] =
    r.nodes.map { case NodeReport(name, flagged, bytes, base, parent, _, write) =>
      (name, flagged, bytes, base, parent, write) }

  test("no-opt runs Kahn's order with nothing flagged, like runBaseline") {
    val out = TestData.freshOutDir("methods-noopt")
    val r = run("no-opt", out)
    assert(r.method == "no-opt")
    assert(r.nodes.map(_.name) == dag.topological.map(w.mvs(_).name))
    assert(!r.nodes.exists(_.flagged))
    val baseOut = TestData.freshOutDir("methods-base")
    val base = controller(baseOut).runBaseline(w, sizes)
    assert(charges(r) == charges(base))
    w.mvs.foreach(mv => assert(readMv(out, mv.name) == readMv(baseOut, mv.name), mv.name))
  }

  test("lru runs on the Controller's LRU policy") {
    val r = run("lru", TestData.freshOutDir("methods-lru"))
    assert(r.method == "lru")
    val direct = controller(TestData.freshOutDir("methods-runlru")).runLru(w, sizes)
    assert(charges(r) == charges(direct))
    assert(r.peakCatalogBytes == direct.peakCatalogBytes)
    // The cached parent is served from memory: no child pays a parent read.
    assert(r.nodes.forall(_.parentReadMs == 0.0))
  }

  test("sc flags exactly the plan's nodes, in the plan's order") {
    val plan = Methods.plan("sc", dag, budget)
    assert(plan.flagged.nonEmpty, "expected a nonempty flagged set")
    val r = run("sc", TestData.freshOutDir("methods-sc"))
    assert(r.method == "sc")
    assert(r.nodes.map(_.name) == plan.order.map(w.mvs(_).name))
    assert(r.nodes.filter(_.flagged).map(_.name).toSet == plan.flagged.map(w.mvs(_).name))
  }

  test("an unknown method is rejected before any MV output exists") {
    val out = TestData.freshOutDir("methods-unknown")
    intercept[IllegalArgumentException](run("no-such-method", out))
    w.mvs.foreach(mv => assert(!Files.exists(out.resolve(mv.name)), mv.name))
  }
}
