package repro.exec

import repro.sim.CostModel

/** Modeled NFS storage costs (substitution documented in DESIGN.md § 2).
  *
  * The paper's testbed materializes to NFS (519.8 MB/s read, 358.9 MB/s
  * write, 175 µs latency) over 10 GB–1 TB datasets, where intermediate I/O
  * is 37–85 % of statement time. At miniature scale local-SSD Parquet I/O
  * is sub-millisecond, so the controller injects an explicit wall-clock
  * delay of `bytes/bandwidth + latency` for every read/write that touches
  * storage; reads served from the Memory Catalog incur no delay. Bandwidth
  * is scaled to the dataset so the I/O:compute balance matches the paper's.
  */
final case class NfsModel(readBytesPerMs: Double, writeBytesPerMs: Double, latencyMs: Double) {
  require(readBytesPerMs > 0 && writeBytesPerMs > 0)

  def readMs(bytes: Long): Double  = if (bytes <= 0) 0.0 else latencyMs + bytes / readBytesPerMs
  def writeMs(bytes: Long): Double = if (bytes <= 0) 0.0 else latencyMs + bytes / writeBytesPerMs

  /** Cost model for the timeline simulator with these storage parameters
    * and a 512 MB/ms memory bandwidth.
    */
  def toCostModel(): CostModel =
    CostModel(readBytesPerMs, writeBytesPerMs, 512.0 * 1024 * 1024, latencyMs)
}

object NfsModel {
  /** Paper read:write bandwidth ratio (519.8 / 358.9). */
  val ReadWriteRatio: Double = 519.8 / 358.9

  /** Scale bandwidth so one full-dataset scan costs `fullReadSeconds`
    * (the paper's 100 GB at 519.8 MB/s scans in ~192 s; we default to a
    * proportionally equivalent 10 s for ~1000× smaller data).
    */
  def scaledTo(datasetBytes: Long, fullReadSeconds: Double = 10.0): NfsModel = {
    val read = datasetBytes / (fullReadSeconds * 1000.0)
    NfsModel(read, read / ReadWriteRatio, 0.175)
  }
}
