package repro.core

/** The branch-and-bound MKP solver as first written, kept verbatim as the
  * reference the optimized `MkpSolver` is compared against. The only change
  * is that `solve` also returns the number of search nodes it visited.
  */
object ReferenceMkp {

  /** Solve max Σ x_y·profits(y) s.t. ∀x: Σ x_y·weights(x)(y) ≤ capacities(x).
    *
    * @param profits    per-item profit (≥ 0)
    * @param weights    weights(dim)(item) ≥ 0; `weights.size` dimensions
    * @param capacities capacity per dimension
    * @param maxNodes   search-node budget; within it the result is exactly
    *                   optimal, beyond it the best incumbent is returned
    *                   (anytime behavior — adversarial instances are
    *                   worst-case exponential for any BnB, incl. the
    *                   paper's OR-Tools solver)
    * @return indices (into `profits`) of the selected items, and the number
    *         of search nodes visited
    */
  def solve(profits: Vector[Double], weights: Vector[Vector[Long]], capacities: Vector[Long],
            maxNodes: Long = 200_000L): (Set[Int], Long) = {
    val l = profits.size
    val k = weights.size
    require(weights.forall(_.size == l), "weight rows must match item count")
    require(capacities.size == k, "one capacity per dimension")
    require(profits.forall(_ >= 0), "profits must be non-negative")
    if (l == 0) return (Set.empty, 0L)
    if (k == 0) return (profits.indices.toSet, 0L) // unconstrained: take everything

    // Branch on items in descending profit density (profit per average
    // normalized weight); dense items first makes the greedy incumbent
    // strong and the bound tight early.
    val density = Array.tabulate(l) { y =>
      val w = (0 until k).map(x => weights(x)(y).toDouble / math.max(1L, capacities(x))).sum / k
      profits(y) / (w + 1e-12)
    }
    val branchOrder = (0 until l).sortBy(y => -density(y)).toArray

    // Partition bound: assign each item to its tightest dimension (highest
    // normalized weight). Any feasible completion satisfies that dimension's
    // constraint restricted to its assigned items, so the sum over
    // dimensions of single-constraint fractional relaxations — plus the
    // full profit of items with no positive weight anywhere — is an upper
    // bound. Far tighter than min-over-dims on sparse alive-set rows.
    val assignedDim: Array[Int] = Array.tabulate(l) { y =>
      val ws = (0 until k).map(x => weights(x)(y).toDouble / math.max(1L, capacities(x)))
      if (ws.forall(_ == 0.0)) -1 else ws.indexOf(ws.max)
    }
    val unassigned: Array[Int] = (0 until l).filter(assignedDim(_) == -1).toArray
    // Per-dimension assigned items ordered by profit/weight for the bound.
    val dimOrder: Array[Array[Int]] = Array.tabulate(k) { x =>
      (0 until l).filter(assignedDim(_) == x)
        .sortBy(y => -(profits(y) / math.max(1L, weights(x)(y)))).toArray
    }

    val decided  = new Array[Byte](l) // 0 undecided, 1 in, 2 out
    val remCap   = capacities.toArray
    var best     = -1.0
    var bestSel  = Set.empty[Int]
    var curSel   = List.empty[Int]

    // Greedy incumbent (densest-first) so the very first bounds already
    // prune aggressively; BnB then only explores where it can improve.
    locally {
      val cap = capacities.toArray
      val sel = Set.newBuilder[Int]
      var v = 0.0
      branchOrder.foreach { y =>
        if ((0 until k).forall(x => weights(x)(y) <= cap(x))) {
          (0 until k).foreach(x => cap(x) -= weights(x)(y))
          sel += y; v += profits(y)
        }
      }
      best = v
      bestSel = sel.result()
    }

    // Upper bound: partition bound over undecided items (see above).
    def bound(curProfit: Double): Double = {
      var b = curProfit
      var u = 0
      while (u < unassigned.length) {
        if (decided(unassigned(u)) == 0) b += profits(unassigned(u))
        u += 1
      }
      var x = 0
      while (x < k) {
        var cap = remCap(x).toDouble
        val ord = dimOrder(x)
        var i = 0
        var open = true
        while (i < ord.length && open) {
          val y = ord(i)
          if (decided(y) == 0) {
            val w = weights(x)(y).toDouble
            if (w == 0) b += profits(y)
            else if (w <= cap) { b += profits(y); cap -= w }
            else { b += profits(y) * (cap / w); open = false }
          }
          i += 1
        }
        x += 1
      }
      b
    }

    def fits(y: Int): Boolean = {
      var x = 0
      while (x < k) { if (weights(x)(y) > remCap(x)) return false; x += 1 }
      true
    }

    var visited = 0L
    def rec(idx: Int, curProfit: Double): Unit = {
      visited += 1
      if (curProfit > best) { best = curProfit; bestSel = curSel.toSet }
      if (idx == l || visited > maxNodes) return
      if (bound(curProfit) <= best + 1e-9) return
      val y = branchOrder(idx)
      if (fits(y)) { // branch: include y
        decided(y) = 1
        var x = 0; while (x < k) { remCap(x) -= weights(x)(y); x += 1 }
        curSel = y :: curSel
        rec(idx + 1, curProfit + profits(y))
        curSel = curSel.tail
        x = 0; while (x < k) { remCap(x) += weights(x)(y); x += 1 }
      }
      decided(y) = 2 // branch: exclude y
      rec(idx + 1, curProfit)
      decided(y) = 0
    }

    rec(0, 0.0)
    (bestSel, visited)
  }
}
