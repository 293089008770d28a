package org.apache.spark

/** Waits until every queued listener event has been delivered, so counts
  * read from a listener after a refresh include all of its tasks.
  * Lives in this package because the listener bus is `private[spark]`.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
