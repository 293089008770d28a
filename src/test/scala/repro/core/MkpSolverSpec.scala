package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.workload.DagGen

class MkpSolverSpec extends AnyFunSuite {

  /** One MKP item: (profit, first row, last row, weight in each of its rows). */
  private type Item = (Double, Int, Int, Long)

  private def search(items: Seq[Item], capacity: Long, rows: Int,
                     maxNodes: Long = 200_000L): MkpSolver.Result =
    MkpSolver.search(items.map(_._1).toVector, items.map(_._2).toVector, items.map(_._3).toVector,
      items.map(_._4).toVector, capacity, rows, maxNodes)

  private def solve(items: Seq[Item], capacity: Long, rows: Int): Set[Int] =
    search(items, capacity, rows).selected

  /** The instance as dense rows×items weights, the form `ReferenceMkp` and
    * `BruteForce` take.
    */
  private def dense(items: Seq[Item], rows: Int): Vector[Vector[Long]] =
    Vector.tabulate(rows, items.size) { (x, y) =>
      val (_, first, last, w) = items(y)
      if (first <= x && x <= last) w else 0L
    }

  private def value(sel: Set[Int], items: Seq[Item]): Double =
    sel.toSeq.map(items(_)._1).sum

  private def feasible(sel: Set[Int], items: Seq[Item], capacity: Long, rows: Int): Boolean =
    dense(items, rows).forall(row => sel.toSeq.map(row(_)).sum <= capacity)

  /** `l` items over `k` rows, each on a uniformly drawn interval. */
  private def randomItems(rnd: Random, l: Int, k: Int, profit: => Double,
                          weight: => Long): Vector[Item] =
    Vector.fill(l) {
      val first = rnd.nextInt(k)
      (profit, first, first + rnd.nextInt(k - first), weight)
    }

  test("single-dimension knapsack") {
    val items = Seq((60.0, 0, 0, 10L), (100.0, 0, 0, 20L), (120.0, 0, 0, 30L))
    val sel = solve(items, 50L, 1)
    assert(value(sel, items) == 220.0) // classic: items 1+2
    assert(sel == Set(1, 2))
  }

  test("empty instance") {
    assert(search(Seq.empty, 10L, 1) == MkpSolver.Result(Set.empty, 0L, provenOptimal = true))
    assert(solve(Seq.empty, 10L, 0).isEmpty)
  }

  test("weight-0 items are always taken") {
    // Items 0 and 1 weigh nothing, so they fit even beside item 2, which
    // fills row 0; item 3 never fits.
    val items = Seq((1.0, 0, 1, 0L), (2.0, 1, 1, 0L), (3.0, 0, 0, 5L), (9.0, 0, 1, 6L))
    assert(solve(items, 5L, 2) == Set(0, 1, 2))
    assert(solve(items.take(2), 0L, 2) == Set(0, 1))
  }

  test("zero capacity selects only zero-weight items") {
    assert(solve(Seq((5.0, 0, 0, 1L), (7.0, 0, 0, 0L)), 0L, 1) == Set(1))
  }

  test("item too large for any dimension is never selected") {
    val sel = solve(Seq((100.0, 0, 1, 6L), (1.0, 0, 1, 1L), (1.0, 1, 1, 4L)), 5L, 2)
    assert(!sel.contains(0))
    assert(sel == Set(1, 2))
  }

  test("two dimensions constrain jointly") {
    // Each of items 0 and 1 fits, and item 2 fits beside either, but 0 and
    // 1 together overflow row 1 (6+5 = 11): the optimum is forced down to
    // one big item plus the filler.
    val items = Seq((10.0, 0, 1, 6L), (10.0, 1, 1, 5L), (1.0, 0, 0, 4L))
    val sel = solve(items, 10L, 2)
    assert(feasible(sel, items, 10L, 2))
    assert(value(sel, items) == 11.0)
  }

  test("ties are resolved to an optimal selection") {
    val items = Seq((5.0, 0, 0, 10L), (5.0, 0, 0, 10L))
    assert(value(solve(items, 10L, 1), items) == 5.0)
  }

  private def assertBruteForce(what: String, items: Seq[Item], capacity: Long, rows: Int): Unit = {
    val r = search(items, capacity, rows)
    assert(r.provenOptimal, s"$what truncated")
    assert(feasible(r.selected, items, capacity, rows), s"$what infeasible")
    val best = BruteForce.mkpValue(items.map(_._1).toVector, dense(items, rows),
      Vector.fill(rows)(capacity))
    assert(math.abs(value(r.selected, items) - best) < 1e-6,
      s"$what: got ${value(r.selected, items)}, optimal $best")
  }

  test("matches brute force on random instances") {
    (0 until 60).foreach { seed =>
      val rnd = new Random(seed)
      val l = 2 + rnd.nextInt(10)
      val k = 1 + rnd.nextInt(4)
      val items = randomItems(rnd, l, k, rnd.nextInt(100).toDouble, rnd.nextInt(50).toLong)
      assertBruteForce(s"seed $seed", items, (20 + rnd.nextInt(100)).toLong, k)
    }
  }

  test("matches brute force with many zero weights (sparse MKP rows)") {
    (0 until 20).foreach { seed =>
      val rnd = new Random(1000 + seed)
      val items = randomItems(rnd, 8, 3, rnd.nextInt(100).toDouble,
        if (rnd.nextBoolean()) 0L else rnd.nextInt(60).toLong)
      assertBruteForce(s"seed $seed", items, 80L, 3)
    }
  }

  test("scales to 100 items with alive-set-shaped (interval) constraints") {
    // S/C's MKP rows are alive-sets: each constrains a window of nodes that
    // coexist in memory. Build 20 windows of 12 consecutive items each;
    // item y lies in the windows w with 5w ≤ y < 5w + 12.
    val rnd = new Random(42)
    val profits = Vector.fill(100)(rnd.nextInt(1000).toDouble)
    val weights = Vector.fill(100)((50 + rnd.nextInt(950)).toLong)
    val items = Vector.tabulate(100) { y =>
      val windows = (0 until 20).filter(w => y >= w * 5 && y < w * 5 + 12)
      (profits(y), windows.head, windows.last, weights(y))
    }
    val t0 = System.nanoTime()
    val sel = solve(items, 2500L, 20)
    val ms = (System.nanoTime() - t0) / 1e6
    assert(feasible(sel, items, 2500L, 20))
    assert(sel.nonEmpty)
    assert(ms < 30000, f"BnB took $ms%.0f ms")
  }

  test("rejects malformed inputs") {
    val ok = MkpSolver.search(Vector(1.0), Vector(0), Vector(0), Vector(1L), 1L, 1)
    assert(ok.selected == Set(0))
    assertThrows[IllegalArgumentException](
      MkpSolver.search(Vector(1.0), Vector(0, 0), Vector(0), Vector(1L), 1L, 1))
    assertThrows[IllegalArgumentException](
      MkpSolver.search(Vector(1.0), Vector(0), Vector(0), Vector(1L, 2L), 1L, 1))
    assertThrows[IllegalArgumentException](search(Seq((-1.0, 0, 0, 1L)), 1L, 1))
    assertThrows[IllegalArgumentException](search(Seq((1.0, 0, 0, -1L)), 1L, 1))
    assertThrows[IllegalArgumentException](search(Seq((1.0, 0, 0, 1L)), -1L, 1))
  }

  test("rejects malformed intervals") {
    assert(search(Seq((1.0, 0, 2, 1L)), 5L, 3).selected == Set(0))
    assertThrows[IllegalArgumentException](search(Seq((1.0, 1, 0, 1L)), 5L, 3))
    assertThrows[IllegalArgumentException](search(Seq((1.0, 0, 3, 1L)), 5L, 3))
    assertThrows[IllegalArgumentException](search(Seq((1.0, -1, 0, 1L)), 5L, 3))
    assertThrows[IllegalArgumentException](search(Seq((1.0, 0, 0, 1L)), 5L, 0))
  }

  // Differential tests: the optimized search must visit exactly the nodes
  // the seed solver visits, on the same instance as dense weights, and
  // return its selection, also when the node cap cuts the search short.
  private val caps = Seq(200_000L, 10L, 1_000L)

  private def assertSameSearch(what: String, items: Seq[Item], capacity: Long, rows: Int): Unit =
    caps.foreach { cap =>
      val (refSel, refNodes) = ReferenceMkp.solve(items.map(_._1).toVector, dense(items, rows),
        Vector.fill(rows)(capacity), cap)
      val r = search(items, capacity, rows, cap)
      assert(r.selected == refSel, s"$what, cap $cap: selection")
      assert(r.searchNodes == refNodes, s"$what, cap $cap: search nodes")
      assert(r.provenOptimal == (refNodes <= cap), s"$what, cap $cap: provenOptimal")
    }

  test("search equals the reference solver on random interval instances") {
    (0 until 100).foreach { seed =>
      val rnd = new Random(5000 + seed)
      val l = 5 + rnd.nextInt(36)
      val k = 1 + rnd.nextInt(6)
      val items = randomItems(rnd, l, k,
        if (seed % 2 == 0) rnd.nextInt(100).toDouble else rnd.nextDouble() * 1000,
        if (rnd.nextInt(10) == 0) 0L else 1L + rnd.nextInt(100))
      val capacity = dense(items, k).map(_.sum).max * (1 + rnd.nextInt(3)) / 5
      assertSameSearch(s"seed $seed", items, capacity, k)
    }
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
      val items = mkp.profits.indices.map(y => (mkp.profits(y), mkp.first(y), mkp.last(y), mkp.weights(y)))
      val sets = ReferenceConstraints.constraintSets(d, order, m)
      assert(mkp.nodes == sets.flatten.distinct.sorted, s"dag $s: items")
      assert(dense(items, mkp.rows) == sets.map(row => mkp.nodes.map(j => if (row(j)) d.size(j) else 0L)),
        s"dag $s: weights")
      assertSameSearch(s"dag $s at ${m / GB} GB, $kind order", items, m, mkp.rows)
    }
  }
}
