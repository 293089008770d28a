package repro.core

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.exec.NfsModel
import repro.workload.{Metadata, Workloads}

/** Algorithm 1's MKP is solved exactly, not cut off at the search cap, on
  * the five workloads' DAGs (PlanGoldenSpec's synthetic sizes and scores)
  * from a tight to a loose memory budget.
  */
class WorkloadMkpSpec extends AnyFunSuite {

  test("every MKP of S/C on the five workloads is proven optimal") {
    var calls = 0
    val provenNodes = AlternatingOpt.scSolvers.copy(nodes = (d: Dag, m: Long, order: Vector[Int]) => {
      val mkp = SimplifiedMkp.instance(d, m, order)
      val r = MkpSolver.search(mkp.profits, mkp.first, mkp.last, mkp.weights, m, mkp.rows)
      assert(r.provenOptimal, s"capped after ${r.searchNodes} nodes at M = $m")
      calls += 1
      SimplifiedMkp.solve(d, m, order)
    })
    val nfs = NfsModel.scaledTo(2L << 30, 8.0)
    Workloads.all.zipWithIndex.foreach { case (w, wi) =>
      val rnd = new Random(17 + wi)
      val sizes = w.mvs.map(mv => mv.name -> (1L << 20) * (1 + rnd.nextInt(200))).toMap
      val d = w.dag(sizes, Metadata.speedupScores(w, sizes, nfs, 400.0))
      val total = sizes.values.sum
      Seq(50, 20, 10, 5, 3, 2).foreach { frac =>
        val m = total / frac
        assert(AlternatingOpt.solve(d, m, provenNodes).plan == AlternatingOpt.solve(d, m).plan,
          s"${w.key} at M = total/$frac")
      }
    }
    assert(calls >= 5 * 6)
  }
}
