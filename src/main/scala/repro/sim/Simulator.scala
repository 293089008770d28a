package repro.sim

import repro.core.{Dag, Plan}
import repro.exec.NfsModel

/** Deterministic timeline simulator of an MV refresh run (§ III-C, Fig 6).
  *
  * Nodes execute sequentially in plan order on the foreground (compute)
  * channel. A flagged node is created in the Memory Catalog and its
  * materialization to storage runs on a background I/O channel in parallel
  * with downstream execution; an unflagged node is written to storage on
  * the critical path. Children read flagged parents from memory and
  * unflagged parents from storage. A flagged node leaves memory once both
  * its last child has executed and its background write has finished
  * (Fig 6, t4); the last child comes from [[Plan.residency]]. Storage and
  * memory are priced by `NfsModel`, the same model that gives the
  * optimizer its speedup scores.
  */
object Simulator {

  /** Per-node inputs beyond the DAG structure.
    *
    * @param sizes         output bytes of each node (s_i)
    * @param computeMs     pure compute time of each node's statement
    * @param baseReadBytes bytes read from base tables (storage) by each node
    * @param memCreateMs   fixed cost of creating a flagged node in the
    *                      Memory Catalog (the paper's `time(create v_i in
    *                      memory)`; an extra action in the Spark substrate)
    */
  final case class Inputs(sizes: Vector[Long], computeMs: Vector[Double],
                          baseReadBytes: Vector[Long], memCreateMs: Double = 0.0)

  final case class Report(
      endToEndMs: Double,
      tableReadMs: Double,
      computeMs: Double,
      writeMs: Double,
      peakMemoryBytes: Long,
      nodeEndMs: Vector[Double],
  ) {
    /** Table IV's "Query" column: read + compute (writes are reported apart). */
    def queryMs: Double = tableReadMs + computeMs
  }

  def simulate(dag: Dag, plan: Plan, cost: NfsModel, in: Inputs): Report = {
    require(dag.isTopological(plan.order), "simulate requires a topological order")
    require(in.sizes.size == dag.n && in.computeMs.size == dag.n && in.baseReadBytes.size == dag.n)

    var t = 0.0          // foreground clock
    var bgFree = 0.0     // background materialization channel availability
    val execEnd = Array.ofDim[Double](dag.n)
    val bgEnd = Array.ofDim[Double](dag.n) // flagged-node materialization end
    var readTotal, computeTotal, writeTotal = 0.0

    plan.order.foreach { i =>
      val parentRead = dag.parents(i).map { p =>
        if (plan.flagged(p)) cost.memMs(in.sizes(p)) else cost.readMs(in.sizes(p))
      }.sum
      val read = parentRead + cost.readMs(in.baseReadBytes(i))
      val compute = in.computeMs(i)
      readTotal += read
      computeTotal += compute
      val w = cost.writeMs(in.sizes(i))
      writeTotal += w // a flagged node's write happens too, off the critical path
      if (plan.flagged(i)) {
        t += read + compute + cost.memMs(in.sizes(i)) + in.memCreateMs
        execEnd(i) = t
        bgFree = math.max(t, bgFree) + w
        bgEnd(i) = bgFree
      } else {
        t += read + compute + w
        execEnd(i) = t
      }
    }

    val endToEnd = math.max(t, bgFree)

    // Peak Memory-Catalog bytes over continuous time: a flagged node is
    // resident from its execution end until both the last position of its
    // residency has executed and its own background write has finished.
    // Releases sort before creations at equal times (half-open intervals).
    val r = Plan.residency(dag, plan.order)
    val events = plan.flagged.toVector.flatMap { j =>
      val until = math.max(execEnd(plan.order(r.end(j))), bgEnd(j))
      Vector((execEnd(j), in.sizes(j)), (until, -in.sizes(j)))
    }.sorted(Ordering.Tuple2(Ordering.Double.IeeeOrdering, Ordering.Long))
    val peak = events.scanLeft(0L)(_ + _._2).max

    Report(endToEnd, readTotal, computeTotal, writeTotal, peak, plan.order.map(execEnd).toVector)
  }
}
