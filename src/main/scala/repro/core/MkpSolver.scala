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

  /** Solve max Σ x_y·profits(y) s.t. for every row x in [0, rows):
    * Σ x_y·weights(y) over the items y with first(y) ≤ x ≤ last(y) is at
    * most `capacity`. Item y weighs `weights(y)` in each row of its interval
    * and nothing elsewhere, and every row has the same capacity: S/C Opt
    * Nodes under a fixed order (see [[SimplifiedMkp]]).
    *
    * @param profits  per-item profit (≥ 0)
    * @param first    per-item first row, in [0, rows)
    * @param last     per-item last row, in [first(y), rows)
    * @param weights  per-item weight (≥ 0) in each row of its interval
    * @param capacity capacity of every row (≥ 0)
    * @param rows     number of rows
    * @param maxNodes search-node budget; within it the result is exactly
    *                 optimal, beyond it the best incumbent is returned
    *                 (anytime behavior — adversarial instances are
    *                 worst-case exponential for any BnB, incl. the
    *                 paper's OR-Tools solver)
    */
  def search(profits: IndexedSeq[Double], first: IndexedSeq[Int], last: IndexedSeq[Int],
             weights: IndexedSeq[Long], capacity: Long, rows: Int,
             maxNodes: Long = 200_000L): Result = {
    val l = profits.size
    require(first.size == l && last.size == l && weights.size == l, "one interval per item")
    require(profits.forall(_ >= 0), "profits must be non-negative")
    require(weights.forall(_ >= 0), "weights must be non-negative")
    require(capacity >= 0 && rows >= 0, "capacity and row count must be non-negative")
    require((0 until l).forall(y => 0 <= first(y) && first(y) <= last(y) && last(y) < rows),
      "intervals must be non-empty and within the rows")
    if (l == 0) return Result(Set.empty, 0L, provenOptimal = true)
    new Search(profits.toArray, first.toArray, last.toArray, weights.toArray, capacity, rows,
      maxNodes).run()
  }

  /** One branch-and-bound search over `k` rows. Its state lives in fields
    * (not in locals captured by closures) so the per-node loops touch plain
    * arrays.
    *
    * Reserving or returning item y touches exactly the `remCap` slice
    * [first(y), last(y)]. The bound's undecided items sit in one circular
    * doubly linked list per row (dancing links): deciding an item unlinks
    * its slot and undoing the decision relinks it, so the bound walks only
    * undecided items, in their fixed order.
    */
  private final class Search(profits: Array[Double], first: Array[Int], last: Array[Int],
                             weights: Array[Long], capacity: Long, k: Int, maxNodes: Long) {
    private val l = profits.length

    // Branch on items in descending profit density (profit per average
    // normalized weight over the k rows); dense items first makes the
    // greedy incumbent strong and the bound tight early. The normalized
    // weight is summed row by row, in ascending order: rows outside the
    // interval add nothing, so this rounds like the sum over all k rows;
    // a closed form len·w/M can round differently and reorder ties.
    private val branchOrder: Array[Int] = {
      val density = Array.tabulate(l) { y =>
        val normalized = weights(y).toDouble / math.max(1L, capacity)
        var w = 0.0
        var x = first(y)
        while (x <= last(y)) { w += normalized; x += 1 }
        profits(y) / (w / k + 1e-12)
      }
      (0 until l).sortBy(y => -density(y)).toArray
    }

    // Partition bound: assign each item to its tightest row (highest
    // normalized weight, the first one on ties); all rows have the same
    // capacity, so that is its first row, or none when it weighs nothing.
    // Any feasible completion satisfies that row's constraint restricted to
    // its assigned items, so the sum over rows of single-constraint
    // fractional relaxations — plus the full profit of weightless items —
    // is an upper bound. Far tighter than min-over-rows on sparse alive-set
    // rows.
    private val assignedDim: Array[Int] = Array.tabulate(l)(y => if (weights(y) > 0) first(y) else -1)

    // Bound slots, one per item, laid out in segments: segment 0 holds the
    // weightless items in ascending order, segment 1 + x the items assigned
    // to row x by descending profit/weight. Node l + s heads segment s's
    // circular list; next/prev link its undecided slots in layout order.
    private val (slotOf, slotWeight, slotProfit, segmentStart) = {
      val segments = (0 until l).filter(assignedDim(_) == -1) +: Array.tabulate(k) { x =>
        (0 until l).filter(assignedDim(_) == x).sortBy(y => -(profits(y) / math.max(1L, weights(y))))
      }
      val items = segments.flatten
      val slotOf = new Array[Int](l)
      items.indices.foreach(i => slotOf(items(i)) = i)
      (slotOf, items.map(weights(_).toDouble).toArray, items.map(profits).toArray,
        segments.scanLeft(0)(_ + _.size))
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
      var tail = head
      members.foreach { i => next(tail) = i; prev(i) = tail; tail = i }
      next(tail) = head
      prev(head) = tail
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

    private val remCap  = Array.fill(k)(capacity)
    private val curSel  = new Array[Int](l)
    private var depth   = 0
    private val bestSel = new Array[Int](l)
    private var bestLen = 0
    private var best    = -1.0
    private var visited = 0L

    // Per item, the row of its interval where its weight last did not fit
    // (its first row until then). An item that failed usually fails there
    // again, so reserve tests that row before it scans.
    private val rejectedAt = first.clone()

    /** Reserves item y's weight in every row of its interval if it fits
      * each remaining capacity; if it does not, reserves nothing and reports
      * false. The row that last rejected y is tested first. The scan then
      * takes two rows per step: y fits a row iff the row's remainder after
      * it is ≥ 0, so one sign test of `a | b` checks both.
      */
    private def reserve(y: Int): Boolean = {
      val w = weights(y)
      if (w > remCap(rejectedAt(y))) return false
      val e = last(y)
      var x = first(y)
      while (x < e) {
        val a = remCap(x) - w
        val b = remCap(x + 1) - w
        if ((a | b) < 0) return reject(y, x, if (a < 0) x else x + 1)
        remCap(x) = a
        remCap(x + 1) = b
        x += 2
      }
      if (x == e) {
        if (w > remCap(e)) return reject(y, e, e)
        remCap(e) -= w
      }
      true
    }

    /** Ends a failed [[reserve]] of item y: returns its weight to the rows
      * before `end`, which the scan had reserved, and records that `row`
      * rejected it. Reports false.
      */
    private def reject(y: Int, end: Int, row: Int): Boolean = {
      rejectedAt(y) = row
      val w = weights(y)
      var x = first(y)
      while (x < end) { remCap(x) += w; x += 1 }
      false
    }

    /** Returns item y's reserved weight, two rows per step like [[reserve]]. */
    private def release(y: Int): Unit = {
      val w = weights(y)
      val e = last(y)
      var x = first(y)
      while (x < e) { remCap(x) += w; remCap(x + 1) += w; x += 2 }
      if (x == e) remCap(e) += w
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
      java.util.Arrays.fill(remCap, capacity)

      rec(0, 0.0)
      Result(bestSel.take(bestLen).toSet, visited, provenOptimal = visited <= maxNodes)
    }
  }
}
