package repro.core

/** A single MV update in the dependency graph (§ IV, Table II).
  *
  * @param id        index of the node in [0, n); doubles as the vertex id
  * @param name      human-readable MV name (for reports)
  * @param sizeBytes estimated size s_i of the node's output table — the
  *                  memory it occupies in the Memory Catalog when flagged
  * @param speedupMs speedup score t_i: estimated end-to-end time saved
  *                  (milliseconds) by keeping this node's output in memory
  */
final case class MvNode(id: Int, name: String, sizeBytes: Long, speedupMs: Double) {
  require(sizeBytes >= 0, s"node $name has negative size")
  require(speedupMs >= 0, s"node $name has negative speedup score")
}

/** The MV dependency graph G = {V, E} (§ IV).
  *
  * Nodes are indexed 0..n-1; an edge (p, c) means MV `c` reads the output
  * of MV `p`, so `p` must execute before `c`. Construction validates node
  * ids and that edge endpoints are distinct, existing nodes; it does not
  * check for cycles. A cycle is caught where an order is asked for:
  * `topological` throws, and `isTopological` is false for every order.
  */
final case class Dag(nodes: Vector[MvNode], edges: Set[(Int, Int)]) {
  require(nodes.indices.forall(i => nodes(i).id == i),
    "node ids must equal their position in the nodes vector")
  require(edges.forall { case (p, c) => p != c && valid(p) && valid(c) },
    "edge endpoints must be distinct, existing nodes")

  private def valid(i: Int): Boolean = i >= 0 && i < nodes.size

  /** Number of nodes n = |V|. */
  val n: Int = nodes.size

  /** children(i): nodes that consume i's output, and parents(i): nodes
    * whose output i consumes; both sorted for determinism.
    */
  val (children: Vector[Vector[Int]], parents: Vector[Vector[Int]]) = {
    val from, to = new Array[Int](edges.size)
    var k = 0
    edges.foreach { case (p, c) => from(k) = p; to(k) = c; k += 1 }
    (Dag.buckets(n, from, to), Dag.buckets(n, to, from))
  }

  /** Deterministic topological order (Kahn's algorithm, smallest id first).
    * Serves as GetTopologicalOrder in Algorithm 2; throws on a cycle.
    */
  def topological: Vector[Int] = {
    val indeg = Array.tabulate(n)(parents(_).size)
    val ready = scala.collection.mutable.SortedSet.empty[Int]
    (0 until n).foreach(i => if (indeg(i) == 0) ready += i)
    val out = Vector.newBuilder[Int]
    var done = 0
    while (ready.nonEmpty) {
      val v = ready.head; ready -= v
      out += v; done += 1
      children(v).foreach { c =>
        indeg(c) -= 1
        if (indeg(c) == 0) ready += c
      }
    }
    require(done == n, "dependency graph contains a cycle")
    out.result()
  }

  /** True iff `order` is a permutation of all nodes respecting every edge;
    * false (never an exception) on duplicate, missing or out-of-range ids.
    */
  def isTopological(order: Seq[Int]): Boolean = {
    if (order.size != n) return false
    val pos = Array.fill(n)(-1)
    var k = 0
    val it = order.iterator
    while (it.hasNext) {
      val v = it.next()
      if (!valid(v) || pos(v) != -1) return false
      pos(v) = k
      k += 1
    }
    (0 until n).forall(p => children(p).forall(c => pos(p) < pos(c)))
  }

  /** Nodes with no parents (read only base tables). */
  def roots: Vector[Int] = (0 until n).filter(parents(_).isEmpty).toVector

  /** Nodes with no children (final MVs of the workload). */
  def sinks: Vector[Int] = (0 until n).filter(children(_).isEmpty).toVector

  def size(i: Int): Long      = nodes(i).sizeBytes
  def speedup(i: Int): Double = nodes(i).speedupMs
}

object Dag {
  /** For each node i, the sorted `value(e)` of the edges e with `key(e)` = i. */
  private def buckets(n: Int, key: Array[Int], value: Array[Int]): Vector[Vector[Int]] = {
    val fill = new Array[Int](n)
    key.foreach(i => fill(i) += 1)
    val b = Array.tabulate(n)(i => new Array[Int](fill(i)))
    java.util.Arrays.fill(fill, 0)
    var e = 0
    while (e < key.length) { val i = key(e); b(i)(fill(i)) = value(e); fill(i) += 1; e += 1 }
    // A builder loop: `a.toVector` would box each element through the
    // generic array copy.
    Vector.tabulate(n) { i =>
      val a = b(i)
      java.util.Arrays.sort(a)
      val v = Vector.newBuilder[Int]
      var j = 0
      while (j < a.length) { v += a(j); j += 1 }
      v.result()
    }
  }

  /** Convenience constructor from (size, speedup) pairs; names are v0..v{n-1}. */
  def of(sizes: Seq[Long], speedups: Seq[Double], edges: Set[(Int, Int)]): Dag = {
    require(sizes.size == speedups.size)
    Dag(
      sizes.zip(speedups).zipWithIndex.map { case ((s, t), i) => MvNode(i, s"v$i", s, t) }.toVector,
      edges)
  }
}
