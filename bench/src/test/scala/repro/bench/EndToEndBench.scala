package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.workload.{Dataset, Workloads}

/** Fig 9 — end-to-end MV refresh time per workload for S/C versus the
  * unoptimized engine and the off-the-shelf baselines (Greedy, Random,
  * Ratio-based selection, DBMS LRU cache), with the paper's Memory Catalog
  * setting of 1.6% of the dataset (0.8% for the date-partitioned variant).
  */
class EndToEndBench extends AnyFunSuite {

  private val methods = Vector("no-opt", "greedy", "random", "ratio", "lru", "sc")

  /** Records `name`: per-workload and total end-to-end time of each method
    * in `columns` at `pct`% catalog, and S/C's speedup; returns the totals.
    */
  private def figure(name: String, ds: Dataset, pct: Double,
                     columns: Vector[String]): Map[String, Double] = {
    val times = Workloads.all.map(w => w.title -> columns.map(m =>
      m -> BenchData.run(ds, w, m, pct).endToEndMs).toMap)
    val totals = columns.map(m => m -> times.map(_._2(m)).sum).toMap
    def row(label: String, t: Map[String, Double]): String =
      f"$label%-10s" + columns.map(m => f"${t(m) / 1000}%9.1fs").mkString +
        f"${t("no-opt") / t("sc")}%12.2fx\n"
    BenchData.record(name, f"${"Workload"}%-10s" + columns.map(m => f"$m%10s").mkString +
      f"${"S/C speedup"}%13s\n" + times.map { case (l, t) => row(l, t) }.mkString +
      row("TOTAL", totals))
    totals
  }

  test("Fig 9a: TPC-DS end-to-end runtimes, 1.6% Memory Catalog") {
    val ds = BenchData.regular
    val pct = 1.6
    val perMethodTotals = figure("fig9a_tpcds.txt", ds, pct, methods)

    // Shape claims: S/C beats no-opt overall, and no baseline beats S/C by
    // more than measurement noise.
    assert(perMethodTotals("sc") < perMethodTotals("no-opt"),
      "S/C total not below the unoptimized total")
    methods.filterNot(_ == "sc").foreach { m =>
      assert(perMethodTotals("sc") <= perMethodTotals(m) * 1.05,
        f"S/C ${perMethodTotals("sc") / 1000}%.1fs worse than $m ${perMethodTotals(m) / 1000}%.1fs")
    }
    // The I/O workloads individually benefit.
    Seq(Workloads.io1, Workloads.io2, Workloads.io3).foreach { w =>
      val no = BenchData.run(ds, w, "no-opt", pct).endToEndMs
      val sc = BenchData.run(ds, w, "sc", pct).endToEndMs
      assert(sc < no, s"${w.key}: S/C $sc not below no-opt $no")
    }
  }

  test("Fig 9b: TPC-DSp end-to-end runtimes, 0.8% Memory Catalog") {
    val totals = figure("fig9b_tpcdsp.txt", BenchData.partitioned, 0.8, Vector("no-opt", "sc"))
    val (no, sc) = (totals("no-opt"), totals("sc"))
    assert(sc < no, "S/C total not below no-opt on TPC-DSp")
  }

  test("TPC-DSp achieves at least the TPC-DS relative speedup (paper § VI-B)") {
    val dsSpeedup = BenchData.total(BenchData.regular, "no-opt", 1.6)(_.endToEndMs) /
      BenchData.total(BenchData.regular, "sc", 1.6)(_.endToEndMs)
    val dspSpeedup = BenchData.total(BenchData.partitioned, "no-opt", 0.8)(_.endToEndMs) /
      BenchData.total(BenchData.partitioned, "sc", 0.8)(_.endToEndMs)
    // Smaller intermediates let S/C keep more in memory: the partitioned
    // dataset should not do worse despite half the catalog.
    assert(dspSpeedup >= dsSpeedup * 0.9,
      f"TPC-DSp speedup $dspSpeedup%.2f far below TPC-DS $dsSpeedup%.2f")
  }
}
