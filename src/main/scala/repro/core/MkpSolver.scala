package repro.core

/** 0-1 multidimensional knapsack (MKP) solver: an anytime branch-and-bound.
  *
  * Stands in for the OR-Tools branch-and-bound solver the paper uses
  * (BinaryMKPSolver in Algorithm 1); this build is offline so we implement
  * branch-and-bound directly. The bound is admissible: each item is
  * assigned to its tightest dimension, and the bound sums per dimension the
  * single-constraint fractional-knapsack relaxation of its assigned
  * undecided items (plus the full profit of weightless items) — an upper
  * bound on any completion. The search stops after `maxNodes` nodes, so the
  * returned selection is optimal only when [[Result.provenOptimal]] is true;
  * otherwise it is the best incumbent found within the cap.
  */
object MkpSolver {

  /** Outcome of one search.
    *
    * @param selected      indices (into `profits`) of the selected items
    * @param searchNodes   branch-and-bound nodes visited
    * @param provenOptimal the search visited at most `maxNodes` nodes, so
    *                      it finished and `selected` is optimal; false means
    *                      `selected` is the best incumbent found within the cap
    */
  final case class Result(selected: Set[Int], searchNodes: Long, provenOptimal: Boolean)

  /** Solve max Σ x_y·profits(y) s.t. ∀x: Σ x_y·weights(x)(y) ≤ capacities(x).
    *
    * @param profits    per-item profit (≥ 0)
    * @param weights    weights(dim)(item) ≥ 0; `weights.size` dimensions
    * @param capacities capacity per dimension (≥ 0)
    * @param maxNodes   search-node budget; within it the result is exactly
    *                   optimal, beyond it the best incumbent is returned
    *                   ([[search]] tells which)
    *                   (anytime behavior — adversarial instances are
    *                   worst-case exponential for any BnB, incl. the
    *                   paper's OR-Tools solver)
    * @return indices (into `profits`) of the selected items
    */
  def solve(profits: Vector[Double], weights: Vector[Vector[Long]], capacities: Vector[Long],
            maxNodes: Long = 200_000L): Set[Int] =
    search(profits, weights, capacities, maxNodes).selected

  /** [[solve]], also reporting the search size and whether it finished. */
  def search(profits: Vector[Double], weights: Vector[Vector[Long]], capacities: Vector[Long],
             maxNodes: Long = 200_000L): Result = {
    val l = profits.size
    require(weights.forall(_.size == l), "weight rows must match item count")
    require(capacities.size == weights.size, "one capacity per dimension")
    require(weights.forall(_.forall(_ >= 0)), "weights must be non-negative")
    searchRuns(profits, Vector.tabulate(l)(y => runs(weights.map(_(y)))), capacities, maxNodes)
  }

  /** A run of one item's weights: `weight` (> 0) in every dimension of
    * [first, last].
    */
  private[core] final case class Run(first: Int, last: Int, weight: Long)

  /** One item's positive weights, per dimension, as maximal runs of
    * consecutive dimensions with equal weight.
    */
  private[core] def runs(column: IndexedSeq[Long]): Vector[Run] = {
    val out = Vector.newBuilder[Run]
    var x = 0
    while (x < column.size) {
      val w = column(x)
      var last = x
      while (last + 1 < column.size && column(last + 1) == w) last += 1
      if (w != 0) out += Run(x, last, w)
      x = last + 1
    }
    out.result()
  }

  /** [[search]] with item y's weights given as `runs(y)`, ascending disjoint
    * runs of dimensions in [0, capacities.size); dimensions outside them
    * weigh 0. The same search on the same instance as [[search]] on its
    * dense k×l weights, for alive-set rows one run per item.
    */
  private[core] def searchRuns(profits: Vector[Double], runs: Vector[Vector[Run]],
                               capacities: Vector[Long], maxNodes: Long = 200_000L): Result = {
    val l = profits.size
    val k = capacities.size
    require(runs.size == l, "one run list per item")
    require(profits.forall(_ >= 0), "profits must be non-negative")
    require(capacities.forall(_ >= 0), "capacities must be non-negative")
    require(runs.forall(rs => rs.forall(r => r.weight > 0 && r.first >= 0 && r.first <= r.last) &&
      rs.lazyZip(rs.drop(1)).forall(_.last < _.first) && rs.lastOption.forall(_.last < k)),
      "runs must be positive, ascending, disjoint and within the dimensions")
    if (l == 0) return Result(Set.empty, 0L, provenOptimal = true)
    // Unconstrained: take everything.
    if (k == 0) return Result(profits.indices.toSet, 0L, provenOptimal = true)
    val flat = runs.flatten
    new Search(profits.toArray, runs.scanLeft(0)(_ + _.size).toArray, flat.map(_.first).toArray,
      flat.map(_.last).toArray, flat.map(_.weight).toArray, capacities.toArray, maxNodes).run()
  }

  /** One branch-and-bound search. Its state lives in fields (not in locals
    * captured by closures) so the per-node loops touch plain arrays.
    *
    * Item y's runs are [runStart(y), runStart(y + 1)) of runFirst, runLast
    * and runWeight; reserving or returning the item touches exactly the
    * `remCap` slices of its runs. The bound's undecided items sit in one
    * circular doubly linked list per dimension (dancing links): deciding an
    * item unlinks its slot and undoing the decision relinks it, so the bound
    * walks only undecided items, in their fixed order.
    */
  private final class Search(profits: Array[Double], runStart: Array[Int], runFirst: Array[Int],
                             runLast: Array[Int], runWeight: Array[Long],
                             capacities: Array[Long], maxNodes: Long) {
    private val l = profits.length
    private val k = capacities.length

    private def normalized(r: Int, x: Int): Double =
      runWeight(r).toDouble / math.max(1L, capacities(x))

    // Branch on items in descending profit density (profit per average
    // normalized weight); dense items first makes the greedy incumbent
    // strong and the bound tight early. Zero weights add nothing to the
    // sum, so summing the runs' dimensions in ascending order gives the
    // dense sum exactly.
    private val branchOrder: Array[Int] = {
      val density = Array.tabulate(l) { y =>
        var w = 0.0
        var r = runStart(y)
        while (r < runStart(y + 1)) {
          var x = runFirst(r)
          while (x <= runLast(r)) { w += normalized(r, x); x += 1 }
          r += 1
        }
        profits(y) / (w / k + 1e-12)
      }
      (0 until l).sortBy(y => -density(y)).toArray
    }

    // Partition bound: assign each item to its tightest dimension (highest
    // normalized weight, the first one on ties). Any feasible completion
    // satisfies that dimension's constraint restricted to its assigned
    // items, so the sum over dimensions of single-constraint fractional
    // relaxations — plus the full profit of items with no positive weight
    // anywhere — is an upper bound. Far tighter than min-over-dims on
    // sparse alive-set rows. `assignedRun` is the run holding that dimension.
    private val (assignedDim, assignedRun) = {
      val dim = Array.fill(l)(-1)
      val run = Array.fill(l)(-1)
      (0 until l).foreach { y =>
        var max = 0.0
        var r = runStart(y)
        while (r < runStart(y + 1)) {
          var x = runFirst(r)
          while (x <= runLast(r)) {
            val w = normalized(r, x)
            if (w > max) { max = w; dim(y) = x; run(y) = r }
            x += 1
          }
          r += 1
        }
      }
      (dim, run)
    }

    // Bound slots, one per item, laid out in segments: segment 0 holds the
    // weightless items in ascending order, segment 1 + x the items assigned
    // to dimension x by descending profit/weight. Node l + s heads segment
    // s's circular list; next/prev link its undecided slots in layout order.
    private val (slotOf, slotWeight, slotProfit, segmentStart) = {
      val segments = (0 until l).filter(assignedDim(_) == -1) +: Array.tabulate(k) { x =>
        (0 until l).filter(assignedDim(_) == x)
          .sortBy(y => -(profits(y) / math.max(1L, runWeight(assignedRun(y)))))
      }
      val items = segments.flatten
      val slotOf = new Array[Int](l)
      items.indices.foreach(i => slotOf(items(i)) = i)
      (slotOf, items.map(y => if (assignedRun(y) < 0) 0.0 else runWeight(assignedRun(y)).toDouble).toArray,
        items.map(profits).toArray, segments.scanLeft(0)(_ + _.size))
    }
    private val next = new Array[Int](l + k + 1)
    private val prev = new Array[Int](l + k + 1)
    (0 to k).foreach(s => link(next, prev, l + s, segmentStart(s) until segmentStart(s + 1)))

    // The dimensions with at least one undecided slot, in ascending order,
    // linked the same way with node k as head: the bound skips the others,
    // which add no term.
    private val dimNext = new Array[Int](k + 1)
    private val dimPrev = new Array[Int](k + 1)
    link(dimNext, dimPrev, k, (0 until k).filter(x => segmentStart(x + 1) < segmentStart(x + 2)))

    /** Links `members`, in order, into the circular list headed by `head`. */
    private def link(next: Array[Int], prev: Array[Int], head: Int, members: Seq[Int]): Unit = {
      var last = head
      members.foreach { i => next(last) = i; prev(i) = last; last = i }
      next(last) = head
      prev(head) = last
    }

    private def unlink(next: Array[Int], prev: Array[Int], i: Int): Unit = {
      next(prev(i)) = next(i)
      prev(next(i)) = prev(i)
    }

    /** Undoes the latest [[unlink]] of `i` still in effect. */
    private def relink(next: Array[Int], prev: Array[Int], i: Int): Unit = {
      next(prev(i)) = i
      prev(next(i)) = i
    }

    private def emptyDim(x: Int): Boolean = next(l + 1 + x) == l + 1 + x

    /** Marks item y decided: unlinks its slot, and its dimension once empty. */
    private def decide(y: Int): Unit = {
      unlink(next, prev, slotOf(y))
      val x = assignedDim(y)
      if (x >= 0 && emptyDim(x)) unlink(dimNext, dimPrev, x)
    }

    /** Undoes [[decide]] for the most recently decided item y. */
    private def undecide(y: Int): Unit = {
      val x = assignedDim(y)
      if (x >= 0 && emptyDim(x)) relink(dimNext, dimPrev, x)
      relink(next, prev, slotOf(y))
    }

    private val remCap  = capacities.clone()
    private val curSel  = new Array[Int](l)
    private var depth   = 0
    private val bestSel = new Array[Int](l)
    private var bestLen = 0
    private var best    = -1.0
    private var visited = 0L

    /** Reserves item y's weights if they fit every remaining capacity, in one
      * pass over its runs; if they do not, returns what the pass already
      * reserved and reports false.
      */
    private def reserve(y: Int): Boolean = {
      var r = runStart(y)
      val end = runStart(y + 1)
      while (r < end) {
        val w = runWeight(r)
        var x = runFirst(r)
        val last = runLast(r)
        while (x <= last) {
          if (w > remCap(x)) {
            while (x > runFirst(r)) { x -= 1; remCap(x) += w }
            while (r > runStart(y)) { r -= 1; give(r) }
            return false
          }
          remCap(x) -= w
          x += 1
        }
        r += 1
      }
      true
    }

    private def give(r: Int): Unit = {
      val w = runWeight(r)
      var x = runFirst(r)
      val last = runLast(r)
      while (x <= last) { remCap(x) += w; x += 1 }
    }

    /** Returns item y's reserved weights. */
    private def release(y: Int): Unit = {
      var r = runStart(y)
      val end = runStart(y + 1)
      while (r < end) { give(r); r += 1 }
    }

    /** Whether the partition bound over undecided items (see above) exceeds
      * `limit`. Adds the bound's terms in their fixed order and stops once the
      * running sum passes `limit`: every term is ≥ 0 (profits are, and
      * `remCap` never goes negative), and adding a value ≥ 0 never lowers an
      * IEEE sum, so the answer equals comparing the full sum.
      */
    private def boundExceeds(curProfit: Double, limit: Double): Boolean = {
      var b = curProfit
      var i = next(l)
      while (i != l) { b += slotProfit(i); i = next(i) }
      if (b > limit) return true
      var x = dimNext(k)
      while (x != k) {
        val head = l + 1 + x
        var cap = remCap(x).toDouble
        i = next(head)
        while (i != head) {
          val w = slotWeight(i) // > 0: the item's tightest dimension
          if (w <= cap) { b += slotProfit(i); cap -= w; i = next(i) }
          else { b += slotProfit(i) * (cap / w); i = head }
          if (b > limit) return true
        }
        x = dimNext(x)
      }
      false
    }

    private def rec(idx: Int, curProfit: Double): Unit = {
      visited += 1
      if (curProfit > best) {
        best = curProfit
        System.arraycopy(curSel, 0, bestSel, 0, depth)
        bestLen = depth
      }
      if (idx == l || visited > maxNodes) return
      if (!boundExceeds(curProfit, best + 1e-9)) return
      val y = branchOrder(idx)
      decide(y) // in both branches
      if (reserve(y)) { // branch: include y
        curSel(depth) = y
        depth += 1
        rec(idx + 1, curProfit + profits(y))
        depth -= 1
        release(y)
      }
      rec(idx + 1, curProfit) // branch: exclude y
      undecide(y)
    }

    def run(): Result = {
      // Greedy incumbent (densest-first) so the very first bounds already
      // prune aggressively; BnB then only explores where it can improve.
      var v = 0.0
      branchOrder.foreach { y =>
        if (reserve(y)) {
          bestSel(bestLen) = y
          bestLen += 1
          v += profits(y)
        }
      }
      best = v
      System.arraycopy(capacities, 0, remCap, 0, k)

      rec(0, 0.0)
      Result(bestSel.take(bestLen).toSet, visited, provenOptimal = visited <= maxNodes)
    }
  }
}
