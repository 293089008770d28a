package repro.workload

import repro.SparkSpec
import repro.exec.{ExecConfig, NfsModel}

class MetadataSpec extends SparkSpec {

  private lazy val ds = TestData.regular(spark)
  private val nfs = NfsModel(readBytesPerMs = 1000, writeBytesPerMs = 500, latencyMs = 1)

  private lazy val cal = Metadata.calibrate(spark, ds, Workloads.compute2,
    ExecConfig(0L, None, TestData.freshOutDir("meta")))

  test("calibration observes a size for every node") {
    assert(cal.sizes.keySet == Workloads.compute2.mvs.map(_.name).toSet)
    cal.sizes.values.foreach(s => assert(s > 0))
  }

  test("speedup scores follow the § IV formula") {
    val w = Workloads.compute2
    val t = Metadata.speedupScores(w, cal.sizes, nfs)
    val sdag = w.structuralDag
    w.mvs.zipWithIndex.foreach { case (mv, i) =>
      val s = cal.sizes(mv.name)
      val expected = sdag.children(i).size * nfs.readMs(s) + nfs.writeMs(s)
      assert(math.abs(t(mv.name) - expected) < 1e-9, mv.name)
    }
  }

  test("nodes with more consumers earn higher scores at equal size") {
    val w = Workloads.compute2
    val flat = w.mvs.map(_.name -> 1000L).toMap
    val t = Metadata.speedupScores(w, flat, nfs)
    val sdag = w.structuralDag
    // c2_store_recent feeds 3 children; a sink feeds none.
    val multi = w.mvs(w.index("c2_store_recent")).name
    val sink = w.mvs(sdag.sinks.head).name
    assert(t(multi) > t(sink))
  }

  test("dag carries calibrated sizes and scores") {
    val d = Metadata.dag(Workloads.compute2, cal.sizes, nfs)
    assert(d.n == 16)
    Workloads.compute2.mvs.zipWithIndex.foreach { case (mv, i) =>
      assert(d.size(i) == cal.sizes(mv.name))
      assert(d.speedup(i) > 0)
    }
  }

  test("ioRatio is a fraction and zero without an NFS model") {
    assert(cal.report.ioRatio >= 0.0 && cal.report.ioRatio < 1.0)
    assert(cal.report.ioRatio == 0.0) // no NFS model on this calibration
  }

  test("ioRatio reflects modeled storage time when NFS model present") {
    val c = Metadata.calibrate(spark, ds, Workloads.io2,
      ExecConfig(0L, Some(NfsModel(50_000, 25_000, 0.2)), TestData.freshOutDir("meta2")))
    assert(c.report.ioRatio > 0.0 && c.report.ioRatio < 1.0)
  }
}
