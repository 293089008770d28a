package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.sim.ClusterSim

/** Table V — S/C's speedup across 1–5 worker cluster sizes. The cluster is
  * modeled (single machine available): measured single-node no-opt and S/C
  * totals are scaled with a per-extra-worker efficiency-loss law fit to the
  * paper's no-opt column (DESIGN.md § 2). The claim under test is that the
  * relative speedup stays flat across cluster sizes.
  */
class TableVBench extends AnyFunSuite {

  private val paper = Vector(
    (1, 1528.0, 934.0), (2, 868.0, 521.0), (3, 656.0, 383.0),
    (4, 546.0, 333.0), (5, 487.0, 304.0))

  test("Table V: cluster scaling of the measured single-node runtimes") {
    val ds = BenchData.regular
    val noOpt1 = BenchData.total(ds, "no-opt", 1.6)(_.endToEndMs)
    val sc1 = BenchData.total(ds, "sc", 1.6)(_.endToEndMs)
    val rows = ClusterSim.table(noOpt1, sc1)

    val sb = new StringBuilder
    sb ++= f"${"Metric"}%-22s" + (1 to 5).map(k => f"$k%7d n").mkString + "\n"
    sb ++= f"${"No opt runtime (s)"}%-22s" + rows.map(r => f"${r.noOptMs / 1000}%8.1f").mkString + "\n"
    sb ++= f"${"  (paper)"}%-22s" + paper.map(p => f"${p._2}%8.0f").mkString + "\n"
    sb ++= f"${"S/C runtime (s)"}%-22s" + rows.map(r => f"${r.scMs / 1000}%8.1f").mkString + "\n"
    sb ++= f"${"  (paper)"}%-22s" + paper.map(p => f"${p._3}%8.0f").mkString + "\n"
    sb ++= f"${"Speedup"}%-22s" + rows.map(r => f"${r.speedup}%7.2fx").mkString + "\n"
    sb ++= f"${"  (paper)"}%-22s" + paper.map(p => f"${p._2 / p._3}%7.2fx").mkString + "\n"
    BenchData.record("table5.txt", sb.toString)

    assert(rows.head.speedup > 1.0, "no single-node speedup measured")
    // The paper's Table V claim: speedup consistent across cluster sizes.
    rows.foreach(r => assert(math.abs(r.speedup - rows.head.speedup) < 0.05))
    // Runtime strictly decreases with workers, sublinearly.
    rows.zip(rows.tail).foreach { case (a, b) =>
      assert(b.noOptMs < a.noOptMs && b.scMs < a.scMs)
    }
    assert(rows.last.noOptMs > rows.head.noOptMs / 5)
  }
}
