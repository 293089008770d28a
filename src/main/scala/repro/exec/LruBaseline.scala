package repro.exec

import java.nio.file.Files
import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.workload.{Dataset, TpcDsLite, Workload}

/** The DBMS-LRU-cache baseline (§ VI-A): query results are cached in an LRU
  * cache whose capacity equals the Memory Catalog size. Execution follows
  * the plain topological order; every MV is written to storage on the
  * critical path (the cache short-circuits reads only, not writes), and a
  * cached parent is served from memory with LRU touch/evict semantics.
  */
final class LruBaseline(spark: SparkSession, dataset: Dataset, cfg: ExecConfig) {

  private val nfs = cfg.nfs.getOrElse(NfsModel.free)

  def run(workload: Workload, sizes: Map[String, Long]): RunReport = {
    Files.createDirectories(cfg.outDir)
    TpcDsLite.registerViews(spark, dataset)
    // LinkedHashMap in access order emulated via remove+reinsert on touch.
    val cache = mutable.LinkedHashMap.empty[String, (DataFrame, Long)]
    var cachedBytes = 0L
    var peak = 0L
    val nodeReports = Vector.newBuilder[NodeReport]
    var readTotal, computeTotal, writeFgTotal = 0.0
    val sdag = workload.structuralDag
    val views = mutable.Set.empty[String] // parent MV temp views registered
    val order = sdag.topological

    def evictUntilFits(extra: Long): Unit =
      while (cachedBytes + extra > cfg.memoryCatalogBytes && cache.nonEmpty) {
        val (name, (df, bytes)) = cache.head
        cache.remove(name)
        df.unpersist(false)
        cachedBytes -= bytes
      }

    val t0 = System.nanoTime()
    try {
      order.foreach { idx =>
        val mv = workload.mvs(idx)
        val baseRead = dataset.baseReadBytes(mv).map(nfs.readMs).sum
        var parentRead = 0.0
        mv.parents.foreach { p =>
          views += p
          cache.remove(p) match {
            case Some(entry) => // hit: touch (reinsert most-recent), no storage read
              cache(p) = entry
              entry._1.createOrReplaceTempView(p)
            case None =>
              spark.read.parquet(cfg.outDir.resolve(p).toString).createOrReplaceTempView(p)
              parentRead += nfs.readMs(sizes(p))
          }
        }
        val readDelay = baseRead + parentRead
        if (readDelay >= 1.0) Thread.sleep(readDelay.toLong)
        readTotal += readDelay

        val bytes = sizes(mv.name)
        val cacheable = bytes <= cfg.memoryCatalogBytes && sdag.children(idx).nonEmpty
        val tExec0 = System.nanoTime()
        val df = spark.sql(mv.sqlFor(dataset.partitioned))
        // Persisted before the write, so the one execution of the statement
        // both writes the MV and fills the cache. Eviction waits until it
        // has run: evicting first could drop a cached parent it reads and
        // make Spark recompute that parent.
        if (cacheable) df.persist(StorageLevel.MEMORY_ONLY)
        df.write.mode("overwrite").parquet(cfg.outDir.resolve(mv.name).toString)
        val execMs = (System.nanoTime() - tExec0) / 1e6
        computeTotal += execMs
        val writeDelay = nfs.writeMs(bytes)
        if (writeDelay >= 1.0) Thread.sleep(writeDelay.toLong)
        writeFgTotal += writeDelay

        if (cacheable) {
          evictUntilFits(bytes)
          cache(mv.name) = (df, bytes)
          cachedBytes += bytes
          peak = math.max(peak, cachedBytes)
        }
        nodeReports += NodeReport(mv.name, flagged = false, bytes, baseRead, parentRead, execMs, writeDelay)
      }
      val endToEnd = (System.nanoTime() - t0) / 1e6
      RunReport(workload.key, dataset.name, "lru", endToEnd, readTotal, computeTotal,
        writeFgTotal, 0.0, peak, nodeReports.result())
    } finally {
      cache.values.foreach(_._1.unpersist(false))
      cache.clear()
      views.foreach(spark.catalog.dropTempView)
    }
  }
}
