package repro.exec

import java.util.concurrent.ConcurrentLinkedQueue
import scala.collection.mutable
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.util.QueryExecutionListener
import repro.SparkSpec
import repro.workload.{TestData, Workloads}

class LruBaselineSpec extends SparkSpec {

  private lazy val ds = TestData.regular(spark)
  private val w = Workloads.compute2

  private lazy val sizes: Map[String, Long] = {
    val out = TestData.freshOutDir("lru-cal")
    new Controller(spark, ds, ExecConfig(0L, None, out)).runBaseline(w).sizes
  }

  /** The LRU baseline's executor, on `cfg`, over `w` with the calibrated sizes. */
  private def lru(cfg: ExecConfig): RunReport = new Controller(spark, ds, cfg).runLru(w, sizes)

  test("produces the same MV contents as the controller baseline") {
    val calOut = TestData.freshOutDir("lru-base")
    new Controller(spark, ds, ExecConfig(0L, None, calOut)).runBaseline(w, sizes)
    val out = TestData.freshOutDir("lru-run")
    val budget = ds.totalBytes / 2
    lru(ExecConfig(budget, Some(NfsModel(1e6, 1e6, 0)), out))
    w.mvs.foreach { mv =>
      val a = spark.read.parquet(out.resolve(mv.name).toString).collect().map(_.toString).sorted
      val b = spark.read.parquet(calOut.resolve(mv.name).toString).collect().map(_.toString).sorted
      assert(a.sameElements(b), mv.name)
    }
  }

  test("cache never exceeds the budget") {
    val budget = sizes.values.max + 1
    val out = TestData.freshOutDir("lru-b")
    val r = lru(ExecConfig(budget, None, out))
    assert(r.peakBytes(budget))
  }

  test("zero budget caches nothing and still completes") {
    val out = TestData.freshOutDir("lru-z")
    val r = lru(ExecConfig(0L, None, out))
    assert(r.peakCatalogBytes == 0)
    assert(r.nodes.size == w.mvs.size)
  }

  test("cache hits reduce modeled read time versus zero cache") {
    val nfs = NfsModel(readBytesPerMs = 50_000, writeBytesPerMs = 25_000, latencyMs = 0.2)
    val zero = lru(ExecConfig(0L, Some(nfs), TestData.freshOutDir("lz")))
    val cached = lru(ExecConfig(ds.totalBytes, Some(nfs), TestData.freshOutDir("lc")))
    assert(cached.tableReadMs < zero.tableReadMs)
    // Writes stay on the critical path for LRU — identical totals.
    assert(math.abs(cached.writeForegroundMs - zero.writeForegroundMs) < 1.0)
  }

  test("runs each cacheable statement once: no count action beside the writes") {
    val actions = new ConcurrentLinkedQueue[String]()
    val listener = new QueryExecutionListener {
      def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = actions.add(funcName)
      def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = actions.add(funcName)
    }
    val calibrated = sizes
    spark.listenerManager.register(listener)
    val r = try {
      val out = TestData.freshOutDir("lru-once")
      val report = new Controller(spark, ds, ExecConfig(ds.totalBytes, None, out)).runLru(w, calibrated)
      // Listener events arrive in order; a sentinel action marks the end.
      spark.range(1).collect()
      val deadline = System.nanoTime() + 30_000_000_000L
      while (!actions.contains("collect") && System.nanoTime() < deadline) Thread.sleep(50)
      report
    } finally spark.listenerManager.unregister(listener)
    assert(actions.contains("collect"), "listener saw no events")
    assert(r.peakCatalogBytes > 0, "nothing was cached")
    assert(!actions.contains("count"), s"actions: $actions")
  }

  test("LRU hits, evictions and peak match an independent replay") {
    val nfs = NfsModel(readBytesPerMs = 1e6, writeBytesPerMs = 1e6, latencyMs = 0.01)
    val sdag = w.structuralDag
    val cacheable = w.mvs.indices.filter(i => sdag.children(i).nonEmpty).map(i => sizes(w.mvs(i).name))
    // The largest cacheable output fits with a few small ones, so entries
    // are both hit and evicted, and a hit's touch decides which parents
    // later children still find cached.
    val budget = cacheable.max + cacheable.max / 10
    // Replay: a hit touches the entry (unless `touch` is off); a node is
    // cached iff it fits the budget and has children; after its write the
    // oldest entries are evicted until it fits. Sums run in the executor's
    // order. Returns the per-node reports, hits, evictions and peak.
    def replay(touch: Boolean) = {
      val cache = mutable.LinkedHashMap.empty[String, Long]
      var hits, evictions = 0
      var peak = 0L
      val nodes = sdag.topological.map { i =>
        val mv = w.mvs(i)
        var parentRead = 0.0
        mv.parents.foreach { p =>
          cache.get(p) match {
            case Some(bytes) => if (touch) { cache.remove(p); cache(p) = bytes }; hits += 1
            case None        => parentRead += nfs.readMs(sizes(p))
          }
        }
        val bytes = sizes(mv.name)
        if (bytes <= budget && sdag.children(i).nonEmpty) {
          while (cache.values.sum + bytes > budget) { cache.remove(cache.head._1); evictions += 1 }
          cache(mv.name) = bytes
          peak = math.max(peak, cache.values.sum)
        }
        (mv.name, bytes, ds.baseReadBytes(mv).map(nfs.readMs).sum, parentRead, nfs.writeMs(bytes))
      }
      (nodes, hits, evictions, peak)
    }
    val (expected, hits, evictions, peak) = replay(touch = true)
    assert(hits > 0 && evictions > 0, s"replay: $hits hits, $evictions evictions")
    assert(replay(touch = false)._1 != expected, "touching a hit changes no parent read")
    val r = lru(ExecConfig(budget, Some(nfs), TestData.freshOutDir("lru-replay")))
    assert(r.nodes.map(n => (n.name, n.outBytes, n.baseReadMs, n.parentReadMs, n.writeDelayMs)) == expected)
    assert(r.peakCatalogBytes == peak)
  }

  private implicit class RichReport(r: RunReport) {
    def peakBytes(budget: Long): Boolean = r.peakCatalogBytes <= budget
  }
}
