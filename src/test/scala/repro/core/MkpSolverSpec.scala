package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.workload.DagGen

class MkpSolverSpec extends AnyFunSuite {

  private def value(sel: Set[Int], profits: Vector[Double]): Double =
    sel.toSeq.map(profits(_)).sum

  private def feasible(sel: Set[Int], weights: Vector[Vector[Long]],
                       capacities: Vector[Long]): Boolean =
    weights.indices.forall(x => sel.toSeq.map(weights(x)(_)).sum <= capacities(x))

  test("single-dimension knapsack") {
    val profits = Vector(60.0, 100.0, 120.0)
    val weights = Vector(Vector(10L, 20L, 30L))
    val sel = MkpSolver.solve(profits, weights, Vector(50L))
    assert(value(sel, profits) == 220.0) // classic: items 1+2
    assert(sel == Set(1, 2))
  }

  test("empty instance") {
    assert(MkpSolver.solve(Vector.empty, Vector(Vector.empty), Vector(10L)).isEmpty)
  }

  test("no dimensions means take everything") {
    assert(MkpSolver.solve(Vector(1.0, 2.0), Vector.empty, Vector.empty) == Set(0, 1))
  }

  test("zero capacity selects only zero-weight items") {
    val sel = MkpSolver.solve(Vector(5.0, 7.0), Vector(Vector(1L, 0L)), Vector(0L))
    assert(sel == Set(1))
  }

  test("item too large for any dimension is never selected") {
    val sel = MkpSolver.solve(Vector(100.0, 1.0),
      Vector(Vector(50L, 1L), Vector(5L, 1L)), Vector(100L, 4L))
    assert(!sel.contains(0))
    assert(sel == Set(1))
  }

  test("two dimensions constrain jointly") {
    // Items 0+1 fit dim 1 (5+5=10) but not dim 2 (9+2=11): the optimum is
    // forced down to one big item plus the filler.
    val profits = Vector(10.0, 10.0, 1.0)
    val weights = Vector(Vector(5L, 5L, 1L), Vector(9L, 2L, 1L))
    val sel = MkpSolver.solve(profits, weights, Vector(10L, 10L))
    assert(feasible(sel, weights, Vector(10L, 10L)))
    assert(value(sel, profits) == 11.0)
  }

  test("ties are resolved to an optimal selection") {
    val profits = Vector(5.0, 5.0)
    val weights = Vector(Vector(10L, 10L))
    val sel = MkpSolver.solve(profits, weights, Vector(10L))
    assert(value(sel, profits) == 5.0)
  }

  test("matches brute force on random instances") {
    (0 until 60).foreach { seed =>
      val rnd = new Random(seed)
      val l = 2 + rnd.nextInt(10)
      val k = 1 + rnd.nextInt(4)
      val profits = Vector.fill(l)(rnd.nextInt(100).toDouble)
      val weights = Vector.fill(k)(Vector.fill(l)(rnd.nextInt(50).toLong))
      val capacities = Vector.fill(k)((20 + rnd.nextInt(100)).toLong)
      val r = MkpSolver.search(profits, weights, capacities)
      assert(r.provenOptimal, s"seed $seed truncated")
      val sel = r.selected
      assert(feasible(sel, weights, capacities), s"seed $seed infeasible")
      val best = BruteForce.mkpValue(profits, weights, capacities)
      assert(math.abs(value(sel, profits) - best) < 1e-6,
        s"seed $seed: got ${value(sel, profits)}, optimal $best")
    }
  }

  test("matches brute force with many zero weights (sparse MKP rows)") {
    (0 until 20).foreach { seed =>
      val rnd = new Random(1000 + seed)
      val l = 8
      val k = 3
      val profits = Vector.fill(l)(rnd.nextInt(100).toDouble)
      val weights = Vector.fill(k)(Vector.fill(l)(
        if (rnd.nextBoolean()) 0L else rnd.nextInt(60).toLong))
      val capacities = Vector.fill(k)(80L)
      val r = MkpSolver.search(profits, weights, capacities)
      assert(r.provenOptimal, s"seed $seed truncated")
      val sel = r.selected
      val best = BruteForce.mkpValue(profits, weights, capacities)
      assert(math.abs(value(sel, profits) - best) < 1e-6, s"seed $seed")
    }
  }

  test("scales to 100 items with alive-set-shaped (interval) constraints") {
    // S/C's MKP rows are alive-sets: each constrains a window of nodes that
    // coexist in memory. Build 20 windows of 12 consecutive items each.
    val rnd = new Random(42)
    val l = 100
    val profits = Vector.fill(l)(rnd.nextInt(1000).toDouble)
    val itemW = Vector.fill(l)((50 + rnd.nextInt(950)).toLong)
    val weights = (0 until 20).map { w =>
      val lo = w * 5
      Vector.tabulate(l)(y => if (y >= lo && y < lo + 12) itemW(y) else 0L)
    }.toVector
    val capacities = Vector.fill(20)(2500L)
    val t0 = System.nanoTime()
    val sel = MkpSolver.solve(profits, weights, capacities)
    val ms = (System.nanoTime() - t0) / 1e6
    assert(feasible(sel, weights, capacities))
    assert(sel.nonEmpty)
    assert(ms < 30000, f"BnB took $ms%.0f ms")
  }

  test("rejects malformed inputs") {
    assertThrows[IllegalArgumentException](
      MkpSolver.solve(Vector(1.0), Vector(Vector(1L, 2L)), Vector(1L)))
    assertThrows[IllegalArgumentException](
      MkpSolver.solve(Vector(1.0), Vector(Vector(1L)), Vector(1L, 2L)))
    assertThrows[IllegalArgumentException](
      MkpSolver.solve(Vector(-1.0), Vector(Vector(1L)), Vector(1L)))
    assertThrows[IllegalArgumentException](
      MkpSolver.solve(Vector(1.0), Vector(Vector(-1L)), Vector(1L)))
    assertThrows[IllegalArgumentException](
      MkpSolver.solve(Vector(1.0), Vector(Vector(1L)), Vector(-1L)))
  }

  test("rejects malformed runs") {
    import MkpSolver.Run
    def runs(rs: Run*) = MkpSolver.searchRuns(Vector(1.0), Vector(rs.toVector), Vector(5L, 5L, 5L))
    assert(runs(Run(0, 0, 1L), Run(1, 2, 3L)).selected == Set(0))
    assertThrows[IllegalArgumentException](runs(Run(0, 1, 0L)))
    assertThrows[IllegalArgumentException](runs(Run(1, 0, 1L)))
    assertThrows[IllegalArgumentException](runs(Run(0, 3, 1L)))
    assertThrows[IllegalArgumentException](runs(Run(-1, 0, 1L)))
    assertThrows[IllegalArgumentException](runs(Run(0, 1, 1L), Run(1, 2, 1L)))
    assertThrows[IllegalArgumentException](runs(Run(2, 2, 1L), Run(0, 0, 1L)))
    assertThrows[IllegalArgumentException](
      MkpSolver.searchRuns(Vector(1.0, 2.0), Vector(Vector.empty), Vector(5L)))
  }

  // Differential tests: the optimized search must visit exactly the nodes
  // the seed solver visits and return its selection, also when the node cap
  // cuts the search short.
  private val caps = Seq(200_000L, 10L, 1_000L)

  private def assertSameSearch(what: String, profits: Vector[Double],
                               weights: Vector[Vector[Long]], capacities: Vector[Long]): Unit =
    caps.foreach { cap =>
      val (refSel, refNodes) = ReferenceMkp.solve(profits, weights, capacities, cap)
      val r = MkpSolver.search(profits, weights, capacities, cap)
      assert(r.selected == refSel, s"$what, cap $cap: selection")
      assert(r.searchNodes == refNodes, s"$what, cap $cap: search nodes")
      assert(r.provenOptimal == (refNodes <= cap), s"$what, cap $cap: provenOptimal")
    }

  test("search equals the reference solver on random dense instances") {
    (0 until 100).foreach { seed =>
      val rnd = new Random(5000 + seed)
      val l = 5 + rnd.nextInt(36)
      val k = 1 + rnd.nextInt(6)
      val profits = Vector.fill(l)(
        if (seed % 2 == 0) rnd.nextInt(100).toDouble else rnd.nextDouble() * 1000)
      val weights = Vector.fill(k)(Vector.fill(l)(1L + rnd.nextInt(100)))
      val capacities = weights.map(row => row.sum * (1 + rnd.nextInt(3)) / 5)
      assertSameSearch(s"seed $seed", profits, weights, capacities)
    }
  }

  /** The instance's runs as dense k×l weights, the form the reference takes. */
  private def dense(mkp: SimplifiedMkp.Instance): Vector[Vector[Long]] =
    Vector.tabulate(mkp.capacities.size, mkp.nodes.size) { (x, y) =>
      mkp.runs(y).find(r => r.first <= x && x <= r.last).fold(0L)(_.weight)
    }

  test("search equals the reference solver on DagGen alive-set instances") {
    val GB = 1L << 30
    for {
      s <- 0 until 50
      d = DagGen.generate(DagGen.Params(100, seed = s)).dag
      m <- Seq(1 * GB, 4 * GB, 16 * GB)
      (kind, order) <- Seq("topological" -> d.topological,
        "MA-DFS" -> MaDfs.order(d, SimplifiedMkp.solve(d, m, d.topological)))
    } {
      val mkp = SimplifiedMkp.instance(d, m, order)
      val weights = dense(mkp)
      val sets = ReferenceConstraints.constraintSets(d, order, m)
      assert(mkp.nodes == sets.flatten.distinct.sorted, s"dag $s: items")
      assert(weights == sets.map(row => mkp.nodes.map(j => if (row(j)) d.size(j) else 0L)),
        s"dag $s: weights")
      assertSameSearch(s"dag $s at ${m / GB} GB, $kind order", mkp.profits, weights, mkp.capacities)
      caps.foreach { cap =>
        assert(MkpSolver.searchRuns(mkp.profits, mkp.runs, mkp.capacities, cap) ==
          MkpSolver.search(mkp.profits, weights, mkp.capacities, cap), s"dag $s, cap $cap: runs")
      }
    }
  }
}
