package perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.{AtomicBoolean, AtomicLong}
import scala.jdk.CollectionConverters._
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** Counts Spark work from the listener bus: jobs started, task CPU and run
  * time, shuffle and input bytes. Read as a delta around one refresh.
  */
final class WorkListener extends SparkListener {
  val jobs     = new AtomicLong
  val cpuNs    = new AtomicLong
  val runMs    = new AtomicLong
  val shuffleB = new AtomicLong
  val inputB   = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = Option(e.taskMetrics).foreach { m =>
    cpuNs.addAndGet(m.executorCpuTime)
    runMs.addAndGet(m.executorRunTime)
    shuffleB.addAndGet(m.shuffleWriteMetrics.bytesWritten)
    inputB.addAndGet(m.inputMetrics.bytesRead)
  }

  /** Current totals. Drain the listener bus first to include every task. */
  def snapshot(): WorkListener.Snapshot =
    WorkListener.Snapshot(jobs.get, cpuNs.get, runMs.get, shuffleB.get, inputB.get, WorkListener.gcMs())
}

object WorkListener {
  final case class Snapshot(jobs: Long, cpuNs: Long, runMs: Long, shuffleB: Long, inputB: Long,
                            gcMs: Long) {
    def minus(o: Snapshot): Snapshot =
      Snapshot(jobs - o.jobs, cpuNs - o.cpuNs, runMs - o.runMs, shuffleB - o.shuffleB,
        inputB - o.inputB, gcMs - o.gcMs)
  }

  def gcMs(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum
}

/** Samples the bytes resident in Spark storage memory on a daemon thread,
  * from `SparkContext.getRDDStorageInfo`, and keeps the peak.
  */
final class CacheSampler(sc: SparkContext, intervalMs: Long = 20) {
  private val running = new AtomicBoolean(true)
  private val peak = new AtomicLong
  private val thread = new Thread(() => {
    while (running.get) {
      peak.accumulateAndGet(CacheSampler.residentBytes(sc), math.max)
      Thread.sleep(intervalMs)
    }
  }, "perfbench-cache-sampler")
  thread.setDaemon(true)
  thread.start()

  /** Stop sampling, take a last sample, and return the peak in bytes. */
  def stop(): Long = {
    running.set(false)
    thread.join()
    peak.accumulateAndGet(CacheSampler.residentBytes(sc), math.max)
  }
}

object CacheSampler {
  def residentBytes(sc: SparkContext): Long = sc.getRDDStorageInfo.map(_.memSize).sum
}
