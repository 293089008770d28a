package repro.core

import scala.util.Random

/** Baseline scheduling methods for S/C Opt Order (§ VI-A).
  *
  * Both minimize the same objective as MA-DFS — average memory usage of the
  * flagged set (Problem 3) — but, as the paper reports, interact poorly
  * with the Memory-Catalog constraint and are much slower.
  */
object OrderBaselines {

  /** Simulated annealing over topological orders: random adjacent-feasible
    * position swaps, accepted when average memory usage decreases or with a
    * cooling probability otherwise (paper sets 10,000 iterations).
    */
  def simulatedAnnealing(dag: Dag, flagged: Set[Int], initial: Vector[Int],
                         iterations: Int = 10000, seed: Long = 0): Vector[Int] = {
    require(dag.isTopological(initial))
    val rnd = new Random(seed)
    var order = initial
    var cost = Plan.averageMemoryUsage(dag, Plan(order, flagged))
    var best = order
    var bestCost = cost
    val n = dag.n
    if (n < 2) return order
    var it = 0
    while (it < iterations) {
      // Swap two adjacent positions iff no dependency forbids it: adjacent
      // swaps keep the order topological unless an edge joins the pair.
      val k = rnd.nextInt(n - 1)
      val (a, b) = (order(k), order(k + 1))
      if (!dag.edges.contains((a, b))) {
        val cand = order.updated(k, b).updated(k + 1, a)
        val candCost = Plan.averageMemoryUsage(dag, Plan(cand, flagged))
        val temp = 1.0 + (iterations - it).toDouble / iterations * 9.0 // 10 → 1
        val accept = candCost < cost ||
          rnd.nextDouble() < math.exp(-(candCost - cost) / math.max(1e-9, temp * (1 + cost) * 0.01))
        if (accept) {
          order = cand; cost = candCost
          if (cost < bestCost) { best = order; bestCost = cost }
        }
      }
      it += 1
    }
    best
  }

  /** Recursive-separator ordering [Ravi et al.; Rao & Richa]: split the node
    * set into a dependency-closed first half and its complement choosing the
    * cut that minimizes the flagged bytes crossing it, recurse on both
    * halves, and concatenate. Divide-and-conquer yields a topological order;
    * as the paper notes, the Memory-Catalog constraint cannot be integrated
    * into the cuts, so the result is frequently infeasible for large U.
    */
  def separator(dag: Dag, flagged: Set[Int]): Vector[Int] = {
    // Partition `block` into a dependency-closed first half A (grown
    // greedily, always adding the eligible node that adds the least
    // flagged-bytes crossing into the complement) and its complement B.
    def rec(block: Vector[Int]): Vector[Int] = {
      if (block.size <= 1) return block
      val inBlock = block.toSet
      val half = (block.size + 1) / 2
      val inA = scala.collection.mutable.Set.empty[Int]
      val a = Vector.newBuilder[Int]
      while (inA.size < half) {
        val eligible = block.filter { v =>
          !inA(v) && dag.parents(v).forall(p => !inBlock(p) || inA(p))
        }
        // Crossing cost if v joins A: flagged bytes of A∪{v} members whose
        // children remain in B (they stay resident across the whole of B).
        def cost(v: Int): Long = {
          val nextA = inA.clone() += v
          nextA.toSeq.collect {
            case u if flagged(u) && dag.children(u).exists(c => inBlock(c) && !nextA(c)) =>
              dag.size(u)
          }.sum
        }
        val pick = eligible.minBy(v => (cost(v), v))
        inA += pick; a += pick
      }
      val first = a.result()
      rec(first) ++ rec(block.filterNot(inA))
    }
    rec(dag.topological)
  }
}
