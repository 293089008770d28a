package repro.core

import org.scalatest.funsuite.AnyFunSuite

class PlanSpec extends AnyFunSuite {

  // 0 → {1, 3}; 2 → 4 → 5 (Fig 7-style shape).
  private val dag = Dag.of(
    sizes = Seq(100, 5, 100, 5, 10, 10), speedups = Seq(100, 5, 100, 5, 10, 10),
    edges = Set((0, 1), (0, 3), (2, 4), (4, 5)))
  private val idOrder = Vector(0, 1, 2, 3, 4, 5)

  // A node's release rank is the end of its residency interval; it is
  // resident at position k when its span covers k.
  test("releaseRank is the last child's position") {
    assert(Plan.residency(dag, idOrder).end(0) == 3) // children at positions 1 and 3
  }

  test("releaseRank of a childless node is its own position") {
    assert(Plan.residency(dag, idOrder).span(5) == (5 to 5))
  }

  test("residentAt honors flagged lifetime") {
    val r = Plan.residency(dag, idOrder)
    def heldAt(k: Int): Set[Int] = Set(0, 2).filter(r.span(_).contains(k))
    assert(heldAt(0) == Set(0))
    assert(heldAt(2) == Set(0, 2)) // both alive at position 2
    assert(heldAt(4) == Set(2))    // 0 released after position 3
    assert(heldAt(5) == Set.empty[Int])
  }

  test("residency requires a permutation of the nodes") {
    assertThrows[IllegalArgumentException](Plan.residency(dag, Vector(0, 1, 2)))
    assertThrows[IllegalArgumentException](Plan.residency(dag, Vector(0, 0, 2, 3, 4, 5)))
    assertThrows[IllegalArgumentException](Plan.residency(dag, Vector(0, 1, 2, 3, 4, 9)))
    assertThrows[IllegalArgumentException](Plan.residency(dag, Vector(0, 1, 2, 3, 4, -1)))
  }

  test("usageTimeline and peak") {
    val p = Plan(idOrder, Set(0, 2))
    assert(Plan.usageTimeline(dag, p) == Vector(100, 100, 200, 200, 100, 0))
    assert(Plan.peakMemoryUsage(dag, p) == 200)
  }

  test("peak of empty flag set is zero") {
    assert(Plan.peakMemoryUsage(dag, Plan(idOrder, Set.empty)) == 0)
  }

  test("order affects peak (Fig 7 intuition)") {
    // Executing 3 (0's last child) before 2 separates the two 100-sized nodes.
    val tau2 = Vector(0, 1, 3, 2, 4, 5)
    assert(dag.isTopological(tau2))
    assert(Plan.peakMemoryUsage(dag, Plan(tau2, Set(0, 2))) == 100)
  }

  test("average memory usage formula") {
    val p = Plan(idOrder, Set(0, 2))
    // 0 spans positions 0→3 (3 units × 100); 2 spans 2→4 (2 × 100); /6 nodes.
    assert(Plan.averageMemoryUsage(dag, p) == (3 * 100 + 2 * 100) / 6.0)
  }

  test("average memory usage of childless flagged node is zero") {
    assert(Plan.averageMemoryUsage(dag, Plan(idOrder, Set(5))) == 0.0)
  }

  test("feasibility combines topology and budget") {
    assert(Plan.isFeasible(dag, Plan(idOrder, Set(0)), 100))
    assert(!Plan.isFeasible(dag, Plan(idOrder, Set(0, 2)), 100))
    assert(!Plan.isFeasible(dag, Plan(Vector(1, 0, 2, 3, 4, 5), Set.empty), 1000))
  }

  test("peak matches direct timeline simulation on random dags") {
    (0 until 20).foreach { s =>
      val d = BruteForce.randomDag(8, s)
      val order = d.topological
      val rnd = new scala.util.Random(s + 100)
      val flags = (0 until d.n).filter(_ => rnd.nextBoolean()).toSet
      val p = Plan(order, flags)
      // Direct simulation: for each time step, sum sizes of flagged nodes
      // whose execution has happened and that still have a pending child.
      val pos = order.zipWithIndex.toMap
      val direct = (0 until d.n).map { k =>
        flags.toSeq.filter { j =>
          val lastChild = (d.children(j).map(pos) :+ pos(j)).max
          pos(j) <= k && k <= lastChild
        }.map(d.size).sum
      }.max
      assert(Plan.peakMemoryUsage(d, p) == direct, s"seed $s")
    }
  }
}
