package repro.workload

import org.scalatest.funsuite.AnyFunSuite
import repro.workload.DagGen._

class DagGenSpec extends AnyFunSuite {

  test("generates the requested node count") {
    Seq(1, 10, 25, 50, 100).foreach { n =>
      assert(generate(Params(n, seed = 1)).dag.n == n)
    }
  }

  test("graphs are acyclic and edges flow stage-forward") {
    (0 until 10).foreach { s =>
      val g = generate(Params(40, seed = s))
      assert(g.dag.isTopological(g.dag.topological), s"seed $s")
      g.dag.edges.foreach { case (p, c) =>
        assert(g.stageOf(p) < g.stageOf(c), s"seed $s: edge ($p,$c) not forward")
      }
    }
  }

  test("deterministic in the seed") {
    val a = generate(Params(50, seed = 9))
    val b = generate(Params(50, seed = 9))
    assert(a.dag == b.dag && a.ops == b.ops)
    val c = generate(Params(50, seed = 10))
    assert(a.dag != c.dag)
  }

  test("height/width ratio shapes the DAG") {
    val tall = generate(Params(64, heightWidthRatio = 4.0, seed = 2))
    val wide = generate(Params(64, heightWidthRatio = 0.25, seed = 2))
    assert(tall.stages > wide.stages)
  }

  test("every non-root node has a previous-stage parent") {
    val g = generate(Params(60, seed = 4))
    (0 until g.dag.n).foreach { v =>
      if (g.stageOf(v) > 0) {
        assert(g.dag.parents(v).nonEmpty, s"node $v in stage ${g.stageOf(v)} has no parent")
        assert(g.dag.parents(v).exists(p => g.stageOf(p) == g.stageOf(v) - 1))
      }
    }
  }

  test("roots are scans with base-table sizes") {
    val g = generate(Params(40, seed = 5))
    g.dag.roots.foreach { r =>
      assert(g.ops(r) == Scan)
      assert(g.dag.size(r) >= (10L << 20))
    }
  }

  test("aggregations shrink their input") {
    val g = generate(Params(80, seed = 6))
    (0 until g.dag.n).foreach { v =>
      if (g.ops(v) == Agg && g.dag.parents(v).nonEmpty) {
        val in = g.dag.parents(v).map(g.dag.size).max
        assert(g.dag.size(v) <= in, s"agg $v larger than input")
      }
    }
  }

  test("speedup scores are positive and scale with size and fan-out") {
    val g = generate(Params(50, seed = 7))
    (0 until g.dag.n).foreach(v => assert(g.dag.speedup(v) > 0))
  }

  test("stage node-count stdev adds irregularity") {
    val even = generate(Params(100, stageStdev = 0.0, seed = 3))
    val noisy = generate(Params(100, stageStdev = 4.0, seed = 3))
    def spread(g: Generated): Int = {
      val counts = g.stageOf.groupBy(identity).values.map(_.size)
      counts.max - counts.min
    }
    assert(spread(noisy) >= spread(even))
  }

  test("max out-degree is honored for the extra-edge phase") {
    // Structural parents may exceed a node's sampled budget (every node
    // needs a parent) but the sampled cap bounds the generator's target.
    val g = generate(Params(60, maxOutDegree = 1, seed = 11))
    val avgOut = g.dag.edges.size.toDouble / g.dag.n
    val g4 = generate(Params(60, maxOutDegree = 8, seed = 11))
    val avgOut4 = g4.dag.edges.size.toDouble / g4.dag.n
    assert(avgOut4 > avgOut)
  }
}
