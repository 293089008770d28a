package repro.workload

import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.workload.DagGen._

class DagGenSpec extends AnyFunSuite {

  test("generated DAGs are unchanged bit for bit") {
    val md = MessageDigest.getInstance("SHA-256")
    for (n <- Seq(1, 10, 25, 50, 100, 200); seed <- 0L until 20L) {
      val g = generate(Params(n, seed))
      val d = g.dag
      val line = Seq(
        s"$n $seed",
        d.edges.toVector.sorted.map { case (p, c) => s"$p>$c" }.mkString(","),
        d.nodes.map(_.sizeBytes).mkString(","),
        d.nodes.map(v => java.lang.Double.doubleToLongBits(v.speedupMs)).mkString(","),
        g.ops.mkString(","),
        g.stageOf.mkString(","),
      ).mkString(" ")
      md.update((line + "\n").getBytes("UTF-8"))
    }
    val hex = md.digest().map(b => f"$b%02x").mkString
    assert(hex == "c169faa6be4274141a9e7dbf7af5439ca6ed3e63ddeff9ce2dec1bcb0806e427")
  }

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
}
