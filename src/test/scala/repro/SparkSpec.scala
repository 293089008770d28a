package repro

import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}
import scala.jdk.CollectionConverters._
import org.apache.logging.log4j.{Level, LogManager}
import org.apache.logging.log4j.core.config.Configurator
import org.apache.spark.ActiveJobs
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.exec.Controller

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). SPARK_MASTER picks the master (default `local[*]`); the session
  * carries [[Controller.SparkSettings]] like every session that runs S/C.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** Runs `body` and returns its result with every Spark job started
    * meanwhile, in start order.
    */
  def withJobs[A](body: => A): (A, Vector[SparkSpec.Job]) = {
    val sc = spark.sparkContext
    val started = new ConcurrentLinkedQueue[SparkListenerJobStart]()
    val ended = new ConcurrentHashMap[Int, Long]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = started.add(e)
      override def onJobEnd(e: SparkListenerJobEnd): Unit = ended.put(e.jobId, e.time)
    }
    sc.addSparkListener(listener)
    try {
      val a = body
      // Once no job is active and the bus is drained, the listener has seen
      // every start and end event of `body`'s jobs.
      val running = ActiveJobs.ids(sc)
      assert(running.isEmpty, s"jobs $running still running after the body")
      val jobs = started.asScala.toVector.map { e =>
        assert(ended.containsKey(e.jobId), s"job ${e.jobId} has no end event")
        val description = Option(e.properties).flatMap(p => Option(p.getProperty("spark.job.description")))
        SparkSpec.Job(description, e.time, ended.get(e.jobId))
      }
      (a, jobs)
    } finally sc.removeSparkListener(listener)
  }

  /** Runs `body`, which fails Spark tasks on purpose, with the loggers
    * that print each failed task's stack trace turned off; restores their
    * levels afterwards.
    */
  def withTaskFailuresQuiet[A](body: => A): A = {
    val saved = SparkSpec.TaskFailureLoggers.map(n => n -> LogManager.getLogger(n).getLevel)
    saved.foreach { case (n, _) => Configurator.setLevel(n, Level.OFF) }
    try body finally saved.foreach { case (n, level) => Configurator.setLevel(n, level) }
  }
}

object SparkSpec {
  /** One Spark job: its description and its start and end times, in epoch
    * milliseconds.
    */
  final case class Job(description: Option[String], startMs: Long, endMs: Long)

  /** Loggers that print a stack trace for every task of a failing job. */
  private val TaskFailureLoggers = Seq(
    "org.apache.spark.executor.Executor",
    "org.apache.spark.scheduler.TaskSetManager",
    "org.apache.spark.storage.BlockManager",
    "org.apache.spark.sql.execution.datasources.FileFormatWriter",
  )

  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions", 64L)
      .config(Controller.SparkSettings)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
