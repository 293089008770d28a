package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.workload.Workloads

/** Table III — summary of the five workloads: TPC-DS query group, node
  * count, and I/O ratio of the timed no-opt run at the Fig 9 budget
  * (intermediate storage time / total statement time), alongside the
  * paper's numbers.
  */
class TableIIIBench extends AnyFunSuite {

  private val paperIoRatio = Map(
    "io1" -> 0.515, "io2" -> 0.590, "io3" -> 0.466, "c1" -> 0.009, "c2" -> 0.283)
  private val paperNodes = Map("io1" -> 21, "io2" -> 19, "io3" -> 26, "c1" -> 21, "c2" -> 16)

  test("Table III: workload summary with measured I/O ratios") {
    val ds = BenchData.regular
    val rows = Workloads.all.map(w => (w, BenchData.run(ds, w, "no-opt", 1.6).ioRatio))
    val sb = new StringBuilder
    sb ++= f"${"Workload"}%-10s ${"TPC-DS Queries"}%-16s ${"#Nodes"}%7s " +
      f"${"I/O ratio"}%10s ${"paper"}%8s\n"
    rows.foreach { case (w, r) =>
      sb ++= f"${w.title}%-10s ${w.tpcdsQueries}%-16s ${w.mvs.size}%7d " +
        f"${r * 100}%9.1f%% ${paperIoRatio(w.key) * 100}%7.1f%%\n"
    }
    BenchData.record("table3.txt", sb.toString)

    rows.foreach { case (w, r) =>
      assert(w.mvs.size == paperNodes(w.key), s"${w.key} node count")
      assert(r > 0.0 && r < 1.0, s"${w.key} ratio $r")
    }
    // Shape: the I/O-heavy workloads are more storage-bound than Compute 1
    // (the paper's least I/O-bound workload).
    val byKey = rows.map { case (w, r) => w.key -> r }.toMap
    Seq("io1", "io2", "io3").foreach { k =>
      assert(byKey(k) > byKey("c1"), s"$k I/O ratio not above Compute 1")
    }
  }
}
