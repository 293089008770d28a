package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.workload.DagGen

class ConstraintsSpec extends AnyFunSuite {

  private val dag = Dag.of(
    sizes = Seq(100, 5, 100, 5, 10, 10), speedups = Seq(100, 5, 100, 5, 10, 10),
    edges = Set((0, 1), (0, 3), (2, 4), (4, 5)))
  private val idOrder = Vector(0, 1, 2, 3, 4, 5)

  test("excluded: oversized nodes") {
    assert(Constraints.excluded(dag, 50) == Set(0, 2))
    assert(Constraints.excluded(dag, 100) == Set.empty[Int])
  }

  test("excluded: zero-speedup nodes") {
    val d = Dag.of(Seq(1, 1), Seq(0.0, 5.0), Set((0, 1)))
    assert(Constraints.excluded(d, 100) == Set(0))
  }

  test("alive sets match residentAt semantics for full candidate set") {
    // Resident at k: executed at or before k, last child at or after k.
    (dag +: (0 until 10).map(BruteForce.randomDag(8, _))).foreach { d =>
      val order = d.topological
      val pos = order.zipWithIndex.toMap
      val sets = ReferenceConstraints.aliveSets(d, order, Set.empty)
      (0 until d.n).foreach { k =>
        val expected = (0 until d.n).filter { j =>
          pos(j) <= k && k <= (d.children(j).map(pos) :+ pos(j)).max
        }.toSet
        assert(sets(k) == expected, s"position $k")
      }
    }
  }

  test("alive sets honor exclusion") {
    val sets = ReferenceConstraints.aliveSets(dag, idOrder, Set(0))
    assert(sets.forall(!_.contains(0)))
  }

  test("constraint sets are maximal") {
    val sets = Constraints.constraintSets(dag, idOrder, 10)
    sets.foreach { s =>
      assert(!sets.exists(o => s != o && s.subsetOf(o)), s"$s is non-maximal")
    }
  }

  test("constraint sets are non-trivial") {
    val sets = Constraints.constraintSets(dag, idOrder, 10)
    sets.foreach(s => assert(s.toSeq.map(dag.size).sum > 10))
  }

  test("huge budget leaves no constraint sets (all trivial)") {
    assert(Constraints.constraintSets(dag, idOrder, 1000).isEmpty)
  }

  test("tiny budget excludes everything") {
    assert(Constraints.constraintSets(dag, idOrder, 1).isEmpty)
    assert(Constraints.excluded(dag, 1) == (0 until 6).toSet)
  }

  test("every violated subset is covered by some constraint set") {
    // Completeness: any flag set whose peak exceeds M must violate at least
    // one of the generated constraints.
    (0 until 10).foreach { seed =>
      val d = BruteForce.randomDag(8, seed)
      val order = d.topological
      val m = 120L
      val sets = Constraints.constraintSets(d, order, m)
      val excl = Constraints.excluded(d, m)
      (0 until (1 << d.n)).foreach { mask =>
        val flags = (0 until d.n).filter(i => (mask & (1 << i)) != 0).toSet
        if (flags.intersect(excl).isEmpty &&
            Plan.peakMemoryUsage(d, Plan(order, flags)) > m) {
          assert(sets.exists(s => flags.intersect(s).toSeq.map(d.size).sum > m),
            s"seed=$seed flags=$flags escaped all constraints")
        }
      }
    }
  }

  /** A topological order drawn uniformly among the ready nodes at each step. */
  private def randomTopological(d: Dag, rnd: Random): Vector[Int] = {
    val remaining = Array.tabulate(d.n)(d.parents(_).size)
    val ready = scala.collection.mutable.ArrayBuffer.from((0 until d.n).filter(remaining(_) == 0))
    val out = Vector.newBuilder[Int]
    while (ready.nonEmpty) {
      val v = ready.remove(rnd.nextInt(ready.size))
      out += v
      d.children(v).foreach { c => remaining(c) -= 1; if (remaining(c) == 0) ready += c }
    }
    out.result()
  }

  /** The rows, and each MKP item's interval of rows, equal the reference's. */
  private def assertSameRows(what: String, d: Dag, order: Vector[Int], budgets: Seq[Long]): Unit = {
    assert(d.isTopological(order), what)
    budgets.foreach { m =>
      val ref = ReferenceConstraints.constraintSets(d, order, m)
      assert(Constraints.constraintSets(d, order, m) == ref, s"$what at $m: rows")
      val mkp = SimplifiedMkp.instance(d, m, order)
      assert(mkp.rows == ref.size, s"$what at $m: row count")
      assert(mkp.nodes == ref.flatten.distinct.sorted, s"$what at $m: items")
      mkp.nodes.indices.foreach { y =>
        assert((mkp.first(y) to mkp.last(y)) == ref.indices.filter(ref(_)(mkp.nodes(y))),
          s"$what at $m: rows of node ${mkp.nodes(y)}")
      }
    }
  }

  /** `BruteForce.randomDag` with about a quarter of the sizes and a quarter
    * of the scores set to 0: size-0 candidates and zero-score (excluded)
    * nodes, which `randomDag` draws rarely or never.
    */
  private def dagWithZeros(n: Int, seed: Long): Dag = {
    val d = BruteForce.randomDag(n, seed)
    val rnd = new Random(~seed)
    Dag.of((0 until n).map(i => if (rnd.nextInt(4) == 0) 0L else d.size(i)),
      (0 until n).map(i => if (rnd.nextInt(4) == 0) 0.0 else d.speedup(i)), d.edges)
  }

  private def orders(d: Dag, rnd: Random): Seq[(String, Vector[Int])] = {
    val flags = (0 until d.n).filter(_ => rnd.nextInt(3) == 0).toSet
    Seq("topological" -> d.topological, "random" -> randomTopological(d, rnd),
      "random" -> randomTopological(d, rnd), "MA-DFS" -> MaDfs.order(d, flags))
  }

  test("interval rows equal the reference rows, in order") {
    (0 until 60).foreach { seed =>
      val rnd = new Random(seed)
      val n = 4 + rnd.nextInt(70)
      Seq("random dag" -> BruteForce.randomDag(n, seed), "dag with zeros" -> dagWithZeros(n, seed))
        .foreach { case (dagKind, d) =>
          orders(d, rnd).foreach { case (kind, o) =>
            assertSameRows(s"$dagKind $seed, $kind order", d, o, Seq(1L, 60L, 120L, 300L, 1000L, 10000L))
          }
        }
    }
    val GB = 1L << 30
    for {
      n <- Seq(25, 100)
      s <- 0 until 10
    } {
      val d = DagGen.generate(DagGen.Params(n, seed = s)).dag
      val rnd = new Random(s)
      val sc = MaDfs.order(d, SimplifiedMkp.solve(d, 4 * GB, d.topological))
      (("S/C MA-DFS" -> sc) +: orders(d, rnd)).foreach { case (kind, o) =>
        assertSameRows(s"DagGen $n/$s, $kind order", d, o, Seq(1 * GB, 4 * GB, 16 * GB))
      }
    }
  }
}
