package org.apache.spark

/** Active Spark jobs as the status store lists them once it has caught up.
  * Lives in this package because the listener bus is `private[spark]`.
  */
object ActiveJobs {

  private val TimeoutNs = 10_000_000_000L

  /** The active job ids after draining the listener bus. The end event of a
    * failed job can be posted after the job's caller has been woken, so
    * while a job is still listed this drains and reads again, for up to
    * 10 s: a job that stays active beyond that is returned.
    */
  def ids(sc: SparkContext): Seq[Int] = {
    val deadline = System.nanoTime() + TimeoutNs
    sc.listenerBus.waitUntilEmpty()
    var ids = sc.statusTracker.getActiveJobIds().toSeq
    while (ids.nonEmpty && System.nanoTime() < deadline) {
      Thread.sleep(10)
      sc.listenerBus.waitUntilEmpty()
      ids = sc.statusTracker.getActiveJobIds().toSeq
    }
    ids
  }
}
