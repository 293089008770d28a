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
    val k = weights.size
    require(weights.forall(_.size == l), "weight rows must match item count")
    require(capacities.size == k, "one capacity per dimension")
    require(profits.forall(_ >= 0), "profits must be non-negative")
    require(weights.forall(_.forall(_ >= 0)), "weights must be non-negative")
    require(capacities.forall(_ >= 0), "capacities must be non-negative")
    if (l == 0) return Result(Set.empty, 0L, provenOptimal = true)
    // Unconstrained: take everything.
    if (k == 0) return Result(profits.indices.toSet, 0L, provenOptimal = true)
    new Search(profits.toArray, weights.map(_.toArray).toArray, capacities.toArray, maxNodes).run()
  }

  /** One branch-and-bound search. Its state lives in fields (not in locals
    * captured by closures) so the per-node loops touch plain arrays.
    */
  private final class Search(profits: Array[Double], weights: Array[Array[Long]],
                             capacities: Array[Long], maxNodes: Long) {
    private val l = profits.length
    private val k = capacities.length

    // Branch on items in descending profit density (profit per average
    // normalized weight); dense items first makes the greedy incumbent
    // strong and the bound tight early.
    private val branchOrder: Array[Int] = {
      val density = Array.tabulate(l) { y =>
        var w = 0.0
        var x = 0
        while (x < k) { w += weights(x)(y).toDouble / math.max(1L, capacities(x)); x += 1 }
        profits(y) / (w / k + 1e-12)
      }
      (0 until l).sortBy(y => -density(y)).toArray
    }

    // Partition bound: assign each item to its tightest dimension (highest
    // normalized weight). Any feasible completion satisfies that dimension's
    // constraint restricted to its assigned items, so the sum over
    // dimensions of single-constraint fractional relaxations — plus the
    // full profit of items with no positive weight anywhere — is an upper
    // bound. Far tighter than min-over-dims on sparse alive-set rows.
    private val assignedDim: Array[Int] = Array.tabulate(l) { y =>
      var dim = -1
      var max = 0.0
      var x = 0
      while (x < k) {
        val w = weights(x)(y).toDouble / math.max(1L, capacities(x))
        if (w > max) { max = w; dim = x }
        x += 1
      }
      dim
    }
    private val unassigned: Array[Int] = (0 until l).filter(assignedDim(_) == -1).toArray

    // Per-dimension assigned items ordered by profit/weight, laid out one
    // dimension after another: dimension x owns bound slots
    // [dimStart(x), dimStart(x + 1)), each with its item, weight and profit.
    private val (dimStart, boundItem, boundWeight, boundProfit) = {
      val dimOrder = Array.tabulate(k) { x =>
        (0 until l).filter(assignedDim(_) == x)
          .sortBy(y => -(profits(y) / math.max(1L, weights(x)(y)))).toArray
      }
      val items = dimOrder.flatten
      (dimOrder.scanLeft(0)(_ + _.length), items,
        Array.tabulate(items.length)(i => weights(assignedDim(items(i)))(items(i)).toDouble),
        items.map(profits))
    }

    // Sparse rows per item: item y has a positive weight exactly in the
    // dimensions [rowStart(y), rowStart(y + 1)) of rowDim/rowWeight (for
    // alive-set rows, a contiguous run of constraint sets). Zero-weight
    // dimensions never block an item or change a remaining capacity.
    private val (rowStart, rowDim, rowWeight) = {
      val rows = Array.tabulate(l)(y => (0 until k).filter(weights(_)(y) != 0).toArray)
      (rows.scanLeft(0)(_ + _.length), rows.flatten,
        rows.indices.toArray.flatMap(y => rows(y).map(weights(_)(y))))
    }

    private val decided = new Array[Byte](l) // 0 undecided, 1 in, 2 out
    private val remCap  = capacities.clone()
    private val curSel  = new Array[Int](l)
    private var depth   = 0
    private val bestSel = new Array[Int](l)
    private var bestLen = 0
    private var best    = -1.0
    private var visited = 0L

    private def fits(y: Int): Boolean = {
      var j = rowStart(y)
      val end = rowStart(y + 1)
      while (j < end) { if (rowWeight(j) > remCap(rowDim(j))) return false; j += 1 }
      true
    }

    /** Reserves (`sign` 1) or returns (`sign` -1) item y's weights. */
    private def reserve(y: Int, sign: Long): Unit = {
      var j = rowStart(y)
      val end = rowStart(y + 1)
      while (j < end) { remCap(rowDim(j)) -= sign * rowWeight(j); j += 1 }
    }

    /** Whether the partition bound over undecided items (see above) exceeds
      * `limit`. Adds the bound's terms in their fixed order and stops once the
      * running sum passes `limit`: every term is ≥ 0 (profits are, and
      * `remCap` never goes negative), and adding a value ≥ 0 never lowers an
      * IEEE sum, so the answer equals comparing the full sum.
      */
    private def boundExceeds(curProfit: Double, limit: Double): Boolean = {
      var b = curProfit
      var u = 0
      while (u < unassigned.length) {
        if (decided(unassigned(u)) == 0) b += profits(unassigned(u))
        u += 1
      }
      if (b > limit) return true
      var x = 0
      while (x < k) {
        var cap = remCap(x).toDouble
        var i = dimStart(x)
        val end = dimStart(x + 1)
        while (i < end) {
          if (decided(boundItem(i)) == 0) {
            val w = boundWeight(i) // > 0: the item's tightest dimension
            if (w <= cap) { b += boundProfit(i); cap -= w }
            else { b += boundProfit(i) * (cap / w); i = end }
            if (b > limit) return true
          }
          i += 1
        }
        x += 1
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
      if (fits(y)) { // branch: include y
        decided(y) = 1
        reserve(y, 1L)
        curSel(depth) = y
        depth += 1
        rec(idx + 1, curProfit + profits(y))
        depth -= 1
        reserve(y, -1L)
      }
      decided(y) = 2 // branch: exclude y
      rec(idx + 1, curProfit)
      decided(y) = 0
    }

    def run(): Result = {
      // Greedy incumbent (densest-first) so the very first bounds already
      // prune aggressively; BnB then only explores where it can improve.
      var v = 0.0
      branchOrder.foreach { y =>
        if (fits(y)) {
          reserve(y, 1L)
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
