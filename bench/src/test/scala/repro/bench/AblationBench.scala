package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.Methods
import repro.core.AlternatingOpt
import repro.sim.Simulator
import repro.workload.{Dataset, Workloads}

/** Fig 12 — ablation of the S/C Opt solution: MKP and MA-DFS each swapped
  * for an alternative method during alternating optimization, compared on
  * the simulated total refresh time of the five workloads (the simulator is
  * driven by calibrated sizes and measured per-node compute times).
  */
class AblationBench extends AnyFunSuite {

  private def simulatedTotal(ds: Dataset, pct: Double,
                             solvers: AlternatingOpt.Solvers): Double =
    Workloads.all.map { w =>
      val d = BenchData.dag(ds, w)
      val plan = AlternatingOpt.solve(d, BenchData.budget(ds, pct), solvers).plan
      Simulator.simulate(d, plan, BenchData.nfs(ds), BenchData.simInputs(ds, w)).endToEndMs
    }.sum

  private def runCase(name: String, ds: Dataset, pct: Double): Unit = {
    val noOpt = Workloads.all.map { w =>
      val d = BenchData.dag(ds, w)
      Simulator.simulate(d, Methods.plan("no-opt", d, 0L), BenchData.nfs(ds),
        BenchData.simInputs(ds, w)).endToEndMs
    }.sum
    val results = Methods.ablations.map { case (label, s) => label -> simulatedTotal(ds, pct, s) }
    val sb = new StringBuilder
    sb ++= f"${ds.name} ($pct%.1f%% Memory Catalog), simulated total refresh time\n"
    sb ++= f"${"No opt"}%-18s${noOpt / 1000}%9.1fs\n"
    results.foreach { case (l, t) =>
      sb ++= f"$l%-18s${t / 1000}%9.1fs  (${noOpt / t}%.2fx)\n"
    }
    BenchData.record(name, sb.toString)

    val sc = results.head._2
    assert(sc < noOpt, "S/C predicted no saving")
    results.tail.foreach { case (l, t) =>
      assert(sc <= t * 1.02, f"MKP+MA-DFS $sc%.0f ms worse than $l $t%.0f ms")
    }
  }

  test("Fig 12a: method ablation on TPC-DS (1.6% Memory Catalog)") {
    runCase("fig12a_tpcds.txt", BenchData.regular, 1.6)
  }

  test("Fig 12b: method ablation on TPC-DSp (0.8% Memory Catalog)") {
    runCase("fig12b_tpcdsp.txt", BenchData.partitioned, 0.8)
  }
}
