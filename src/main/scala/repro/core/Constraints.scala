package repro.core

/** GetConstraints (§ V-A): alive-sets that become the MKP's capacity rows.
  *
  * For execution order τ, the alive-set of position/node v_i is
  *   V_i = { v_j | τ(j) ≤ τ(i) ≤ max_{(v_j,v_k)∈E} τ(k), v_j ∉ V_exclude }
  * — the candidate nodes that, if flagged, would be resident in memory
  * while v_i executes. Each surviving V_i yields one knapsack constraint
  * Σ_{j∈V_i} x_j·s_j ≤ M.
  *
  * Sets are built and filtered as bitsets of `Long` words, one row of
  * ⌈n/64⌉ words per set; bit j of a row is node j.
  */
object Constraints {

  /** V_exclude: nodes never worth evaluating in the MKP —
    * oversized (s_i > M: infeasible alone) or useless (t_i = 0).
    */
  def excluded(dag: Dag, memoryBudget: Long): Set[Int] =
    (0 until dag.n).filter(i => dag.size(i) > memoryBudget || dag.speedup(i) == 0.0).toSet

  /** Sets of node ids as bitsets: row r is `words(r * stride until (r + 1) * stride)`. */
  private[core] final class Rows(val size: Int, words: Array[Long], stride: Int) {
    def contains(r: Int, j: Int): Boolean = (words(r * stride + (j >>> 6)) & (1L << j)) != 0

    /** Row r's members, added in ascending order. */
    def set(r: Int): Set[Int] = {
      val b = Set.newBuilder[Int]
      var i = 0
      while (i < stride) {
        var w = words(r * stride + i)
        while (w != 0) { b += i * 64 + java.lang.Long.numberOfTrailingZeros(w); w &= w - 1 }
        i += 1
      }
      b.result()
    }

    def sets: Vector[Set[Int]] = Vector.tabulate(size)(set)
  }

  private def stride(n: Int): Int = (n + 63) >>> 6

  /** Row k holds every candidate whose [[Plan.residency]] span covers k. */
  private def aliveWords(dag: Dag, order: Vector[Int], exclude: Set[Int]): Array[Long] = {
    val r = Plan.residency(dag, order)
    val s = stride(dag.n)
    val words = new Array[Long](dag.n * s)
    var j = 0
    while (j < dag.n) {
      if (!exclude(j)) {
        val bit = 1L << j
        var at = r.start(j) * s + (j >>> 6)
        val end = r.end(j) * s + (j >>> 6)
        while (at <= end) { words(at) |= bit; at += s }
      }
      j += 1
    }
    words
  }

  /** All alive-sets under `order`, one per execution position, with
    * excluded nodes removed: position k's set holds every candidate whose
    * [[Plan.residency]] span covers k.
    */
  def aliveSets(dag: Dag, order: Vector[Int], exclude: Set[Int]): Vector[Set[Int]] =
    new Rows(dag.n, aliveWords(dag, order, exclude), stride(dag.n)).sets

  /** Relevant constraint sets: distinct, maximal (not a strict subset of
    * another) and non-trivial (their total size can exceed the budget).
    * Kept in the order of the first position holding each.
    */
  def constraintSets(dag: Dag, order: Vector[Int], memoryBudget: Long): Vector[Set[Int]] =
    constraintRows(dag, order, memoryBudget).sets

  /** [[constraintSets]] as bitset rows. */
  private[core] def constraintRows(dag: Dag, order: Vector[Int], memoryBudget: Long): Rows = {
    val s = stride(dag.n)
    val alive = aliveWords(dag, order, excluded(dag, memoryBudget))

    def same(a: Int, b: Int): Boolean =
      java.util.Arrays.equals(alive, a * s, a * s + s, alive, b * s, b * s + s)
    def subset(a: Int, b: Int): Boolean = {
      var i = 0
      while (i < s) { if ((alive(a * s + i) & ~alive(b * s + i)) != 0) return false; i += 1 }
      true
    }
    def empty(a: Int): Boolean = {
      var i = 0
      while (i < s) { if (alive(a * s + i) != 0) return false; i += 1 }
      true
    }
    def bytes(a: Int): Long = {
      var sum = 0L
      var i = 0
      while (i < s) {
        var w = alive(a * s + i)
        while (w != 0) { sum += dag.size(i * 64 + java.lang.Long.numberOfTrailingZeros(w)); w &= w - 1 }
        i += 1
      }
      sum
    }

    // Positions holding each distinct non-empty set first, in order.
    val distinct = scala.collection.mutable.ArrayBuffer.empty[Int]
    (0 until dag.n).foreach(a => if (!empty(a) && !distinct.exists(same(a, _))) distinct += a)
    val kept = distinct.filter(a =>
      bytes(a) > memoryBudget && !distinct.exists(b => b != a && subset(a, b)))
    val words = new Array[Long](kept.length * s)
    kept.indices.foreach(r => System.arraycopy(alive, kept(r) * s, words, r * s, s))
    new Rows(kept.length, words, s)
  }
}
