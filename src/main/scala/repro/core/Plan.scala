package repro.core

import scala.collection.immutable.ArraySeq

/** A refresh plan: an execution order τ plus the flagged set U (§ IV).
  *
  * @param order   execution order as a sequence of node ids; order(k) is the
  *                (k+1)-th node to execute. (The paper's τ maps node → rank;
  *                [[Plan.residency]]'s `start` gives that view.)
  * @param flagged U — the nodes whose outputs are kept in the Memory Catalog
  */
final case class Plan(order: Vector[Int], flagged: Set[Int]) {
  def totalSpeedup(dag: Dag): Double = flagged.toSeq.map(dag.speedup).sum
}

/** Memory-occupancy semantics of a plan (§ III-C, § IV).
  *
  * A flagged node occupies the Memory Catalog from the moment it executes
  * until its last child (by execution order) has executed; a childless
  * flagged node occupies memory only during its own execution. That rule
  * is stated once, in [[Plan.residency]]; peak and average memory, the
  * alive-set constraints, the baselines' feasibility test, the
  * Controller's release schedule and the Simulator's continuous-time peak
  * all derive from its intervals.
  */
object Plan {

  /** Residency intervals under one execution order: node i, if flagged, is
    * held at every position in `span(i)` = [start(i), end(i)].
    */
  final case class Residency(start: IndexedSeq[Int], end: IndexedSeq[Int]) {
    def span(i: Int): Range = start(i) to end(i)
  }

  /** The residency interval of every node, in O(n + E): `start` is the
    * node's position in `order`, `end` its last child's position, or its
    * own position when childless.
    */
  def residency(dag: Dag, order: Vector[Int]): Residency = {
    require(order.size == dag.n, "order must be a permutation of the nodes")
    val start = Array.fill(dag.n)(-1)
    order.zipWithIndex.foreach { case (v, k) =>
      require(v >= 0 && v < dag.n && start(v) == -1, "order must be a permutation of the nodes")
      start(v) = k
    }
    val end = Array.tabulate(dag.n) { j =>
      val kids = dag.children(j)
      if (kids.isEmpty) start(j) else kids.map(start).max
    }
    Residency(ArraySeq.unsafeWrapArray(start), ArraySeq.unsafeWrapArray(end))
  }

  /** Memory (bytes) in use at each execution position; length n. */
  def usageTimeline(dag: Dag, plan: Plan): Vector[Long] = {
    val r = residency(dag, plan.order)
    val diff = new Array[Long](dag.n + 1)
    plan.flagged.foreach { i =>
      if (r.start(i) <= r.end(i)) {
        diff(r.start(i)) += dag.size(i)
        diff(r.end(i) + 1) -= dag.size(i)
      }
    }
    diff.take(dag.n).scanLeft(0L)(_ + _).tail.toVector
  }

  /** Peak Memory-Catalog usage of the plan (the S/C Opt constraint). */
  def peakMemoryUsage(dag: Dag, plan: Plan): Long =
    usageTimeline(dag, plan).maxOption.getOrElse(0L)

  /** Average memory usage — the objective of Problem 3 (S/C Opt Order):
    * (1/n) Σ_{v_i ∈ U} (max_{(v_i,v_j)∈E} τ(j) − τ(i)) · s_i,
    * i.e. the mean resident-byte count over the run assuming unit job times.
    */
  def averageMemoryUsage(dag: Dag, plan: Plan): Double = {
    if (dag.n == 0) return 0.0
    val r = residency(dag, plan.order)
    plan.flagged.toSeq.map(i => (r.end(i) - r.start(i)).toDouble * dag.size(i)).sum / dag.n
  }

  /** True iff the plan's order is topological and peak memory ≤ budget. */
  def isFeasible(dag: Dag, plan: Plan, memoryBudget: Long): Boolean =
    dag.isTopological(plan.order) && peakMemoryUsage(dag, plan) <= memoryBudget
}
