package repro.exec

import java.util.concurrent.ConcurrentLinkedQueue
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

  test("produces the same MV contents as the controller baseline") {
    val calOut = TestData.freshOutDir("lru-base")
    new Controller(spark, ds, ExecConfig(0L, None, calOut)).runBaseline(w, sizes)
    val out = TestData.freshOutDir("lru-run")
    val budget = ds.totalBytes / 2
    new LruBaseline(spark, ds, ExecConfig(budget, Some(NfsModel(1e6, 1e6, 0)), out))
      .run(w, sizes)
    w.mvs.foreach { mv =>
      val a = spark.read.parquet(out.resolve(mv.name).toString).collect().map(_.toString).sorted
      val b = spark.read.parquet(calOut.resolve(mv.name).toString).collect().map(_.toString).sorted
      assert(a.sameElements(b), mv.name)
    }
  }

  test("cache never exceeds the budget") {
    val budget = sizes.values.max + 1
    val out = TestData.freshOutDir("lru-b")
    val r = new LruBaseline(spark, ds, ExecConfig(budget, None, out)).run(w, sizes)
    assert(r.peakBytes(budget))
  }

  test("zero budget caches nothing and still completes") {
    val out = TestData.freshOutDir("lru-z")
    val r = new LruBaseline(spark, ds, ExecConfig(0L, None, out)).run(w, sizes)
    assert(r.peakCatalogBytes == 0)
    assert(r.nodes.size == w.mvs.size)
  }

  test("cache hits reduce modeled read time versus zero cache") {
    val nfs = NfsModel(readBytesPerMs = 50_000, writeBytesPerMs = 25_000, latencyMs = 0.2)
    val zero = new LruBaseline(spark, ds, ExecConfig(0L, Some(nfs), TestData.freshOutDir("lz")))
      .run(w, sizes)
    val cached = new LruBaseline(spark, ds,
      ExecConfig(ds.totalBytes, Some(nfs), TestData.freshOutDir("lc"))).run(w, sizes)
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
      val report = new LruBaseline(spark, ds, ExecConfig(ds.totalBytes, None, out)).run(w, calibrated)
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

  private implicit class RichReport(r: RunReport) {
    def peakBytes(budget: Long): Boolean = r.peakCatalogBytes <= budget
  }
}
