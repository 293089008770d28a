package repro.core

import org.scalatest.funsuite.AnyFunSuite

class DagSpec extends AnyFunSuite {

  private val diamond = Dag.of(
    sizes = Seq(10, 20, 30, 40), speedups = Seq(1, 2, 3, 4),
    edges = Set((0, 1), (0, 2), (1, 3), (2, 3)))

  test("node count and adjacency") {
    assert(diamond.n == 4)
    assert(diamond.children(0) == Vector(1, 2))
    assert(diamond.parents(3) == Vector(1, 2))
    assert(diamond.children(3).isEmpty)
    assert(diamond.parents(0).isEmpty)
  }

  test("roots and sinks") {
    assert(diamond.roots == Vector(0))
    assert(diamond.sinks == Vector(3))
  }

  test("topological order is valid and deterministic") {
    val t = diamond.topological
    assert(diamond.isTopological(t))
    assert(t == diamond.topological)
    assert(t == Vector(0, 1, 2, 3))
  }

  test("isTopological rejects permutations violating edges") {
    assert(!diamond.isTopological(Vector(1, 0, 2, 3)))
    assert(!diamond.isTopological(Vector(0, 1, 3, 2)))
    assert(!diamond.isTopological(Vector(0, 1, 1, 3))) // duplicate
    assert(!diamond.isTopological(Vector(0, 2, 1)))    // missing
    assert(!diamond.isTopological(Vector(0, 1, 2, 4))) // out of range
    assert(!diamond.isTopological(Vector(-1, 0, 1, 2)))
  }

  test("isTopological rejects non-permutations") {
    assert(!diamond.isTopological(Vector(0, 1, 2)))
    assert(!diamond.isTopological(Vector(0, 1, 2, 2)))
  }

  test("cycle detection") {
    val cyclic = Dag.of(Seq(1, 1), Seq(0, 0), Set((0, 1), (1, 0)))
    assertThrows[IllegalArgumentException](cyclic.topological)
  }

  test("self edges rejected") {
    assertThrows[IllegalArgumentException](Dag.of(Seq(1), Seq(0), Set((0, 0))))
  }

  test("edge endpoints must exist") {
    assertThrows[IllegalArgumentException](Dag.of(Seq(1, 1), Seq(0, 0), Set((0, 5))))
  }

  test("node ids must match positions") {
    assertThrows[IllegalArgumentException](
      Dag(Vector(MvNode(1, "a", 1, 0)), Set.empty))
  }

  test("negative size rejected") {
    assertThrows[IllegalArgumentException](MvNode(0, "a", -1, 0))
  }

  test("size and speedup accessors") {
    assert(diamond.size(2) == 30L)
    assert(diamond.speedup(3) == 4.0)
  }

  test("empty graph") {
    val empty = Dag(Vector.empty, Set.empty)
    assert(empty.n == 0)
    assert(empty.topological.isEmpty)
  }

  test("disconnected components are all ordered") {
    val d = Dag.of(Seq(1, 1, 1, 1), Seq(0, 0, 0, 0), Set((0, 1), (2, 3)))
    val t = d.topological
    assert(d.isTopological(t))
  }

  test("topological order valid on random dags") {
    (0 until 20).foreach { s =>
      val d = BruteForce.randomDag(10, s)
      assert(d.isTopological(d.topological), s"seed $s")
    }
  }
}
