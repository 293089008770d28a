package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Methods

class AlternatingOptSpec extends AnyFunSuite {

  // Fig 7-style instance: reordering unlocks co-flagging the two 100s.
  private val fig7 = Dag.of(
    sizes = Seq(100, 5, 100, 5, 10, 10), speedups = Seq(100, 5, 100, 5, 10, 10),
    edges = Set((0, 1), (0, 3), (2, 4), (4, 5)))

  test("result is always feasible") {
    val r = AlternatingOpt.solve(fig7, 100)
    assert(Plan.isFeasible(fig7, r.plan, 100))
  }

  test("reordering reaches the Fig 7 optimum of 210") {
    val r = AlternatingOpt.solve(fig7, 100)
    assert(r.plan.totalSpeedup(fig7) == 210.0)
    // The fixed-order optimum is only 120; alternation must beat it.
    assert(r.plan.totalSpeedup(fig7) >
      SimplifiedMkp.solve(fig7, 100, fig7.topological).toSeq.map(fig7.speedup).sum)
  }

  test("converges within few iterations") {
    val r = AlternatingOpt.solve(fig7, 100)
    assert(r.iterations <= 10)
  }

  test("zero budget flags nothing") {
    val r = AlternatingOpt.solve(fig7, 0)
    assert(r.plan.flagged.isEmpty)
    assert(fig7.isTopological(r.plan.order))
  }

  test("huge budget flags everything") {
    val r = AlternatingOpt.solve(fig7, 1L << 40)
    assert(r.plan.flagged == (0 until 6).toSet)
  }

  test("never worse than the single-shot MKP on random dags") {
    (0 until 25).foreach { s =>
      val d = BruteForce.randomDag(10, s)
      Seq(80L, 150L).foreach { m =>
        val alt = AlternatingOpt.solve(d, m)
        assert(Plan.isFeasible(d, alt.plan, m), s"seed=$s m=$m infeasible")
        val single = SimplifiedMkp.solve(d, m, d.topological).toSeq.map(d.speedup).sum
        assert(alt.plan.totalSpeedup(d) + 1e-9 >= single, s"seed=$s m=$m worse than 1-shot")
      }
    }
  }

  test("close to the global brute-force optimum on tiny dags") {
    var got, best = 0.0
    (0 until 12).foreach { s =>
      val d = BruteForce.randomDag(6, s)
      val m = 120L
      got += AlternatingOpt.solve(d, m).plan.totalSpeedup(d)
      best += BruteForce.optimum(d, m)
    }
    assert(got >= 0.9 * best, f"alternating opt total $got%.1f < 90%% of optimum $best%.1f")
  }

  test("ablated solvers still produce feasible plans") {
    val d = BruteForce.randomDag(10, 3)
    val variants = Seq(
      AlternatingOpt.scSolvers.copy(nodes = NodeBaselines.greedy),
      AlternatingOpt.scSolvers.copy(nodes = NodeBaselines.ratio),
      AlternatingOpt.scSolvers.copy(nodes = NodeBaselines.random(_, _, _, 11)),
      AlternatingOpt.scSolvers.copy(order = (dd, u) =>
        OrderBaselines.simulatedAnnealing(dd, u, dd.topological, iterations = 500)),
      AlternatingOpt.scSolvers.copy(order = OrderBaselines.separator),
    )
    variants.foreach { v =>
      val r = AlternatingOpt.solve(d, 150, v)
      assert(Plan.isFeasible(d, r.plan, 150))
    }
  }

  test("MKP + MA-DFS at least matches every ablated pair on random dags") {
    var scTotal = 0.0
    var bestAblated = 0.0
    (0 until 15).foreach { s =>
      val d = BruteForce.randomDag(9, s + 40)
      val m = 130L
      scTotal += AlternatingOpt.solve(d, m).plan.totalSpeedup(d)
      val ablated = Seq(
        AlternatingOpt.scSolvers.copy(nodes = NodeBaselines.greedy),
        AlternatingOpt.scSolvers.copy(nodes = NodeBaselines.ratio),
      ).map(v => AlternatingOpt.solve(d, m, v).plan.totalSpeedup(d)).max
      bestAblated += ablated
    }
    assert(scTotal >= bestAblated,
      f"S/C total $scTotal%.1f below best ablated $bestAblated%.1f")
  }

  test("single-pass baselines keep the topological order") {
    Seq("greedy", "random", "ratio").foreach { m =>
      val p = Methods.plan(m, fig7, 100)
      assert(p.order == fig7.topological, m)
      assert(Plan.isFeasible(fig7, p, 100), m)
    }
  }
}
