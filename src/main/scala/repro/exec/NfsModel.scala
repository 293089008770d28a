package repro.exec

/** Storage cost model: modeled NFS delays and the speedup score (§ IV).
  *
  * The paper's testbed materializes to NFS (519.8 MB/s read, 358.9 MB/s
  * write, 175 µs latency) over 10 GB–1 TB datasets, where intermediate I/O
  * is 37–85 % of statement time. At miniature scale local-SSD Parquet I/O
  * is sub-millisecond, so the controller injects an explicit wall-clock
  * delay of `bytes/bandwidth + latency` for every read/write that touches
  * storage (substitution documented in DESIGN.md § 2). Bandwidth is scaled
  * to the dataset so the I/O:compute balance matches the paper's.
  *
  * `memBytesPerMs` prices Memory-Catalog reads and creates. It is infinite
  * for the Spark substrate, where the controller charges nothing for a
  * catalog hit, and 10 GB/s in the paper's environment.
  */
final case class NfsModel(readBytesPerMs: Double, writeBytesPerMs: Double, latencyMs: Double,
                          memBytesPerMs: Double = Double.PositiveInfinity) {
  require(readBytesPerMs > 0 && writeBytesPerMs > 0 && memBytesPerMs > 0)

  def readMs(bytes: Long): Double  = if (bytes <= 0) 0.0 else latencyMs + bytes / readBytesPerMs
  def writeMs(bytes: Long): Double = if (bytes <= 0) 0.0 else latencyMs + bytes / writeBytesPerMs
  def memMs(bytes: Long): Double   = bytes / memBytesPerMs

  /** Speedup score t_i (§ IV) of a node with `bytes` of output: each of its
    * `children` reads it from memory instead of storage, and it is created
    * in memory while its storage write moves off the critical path. The
    * in-memory create also costs `memCreateMs` (the cache fill during its
    * write in this substrate); nodes whose savings do not cover it score 0 and are
    * excluded by SimplifiedMKP's V_exclude rule.
    */
  def speedupScore(children: Int, bytes: Long, memCreateMs: Double): Double =
    math.max(0.0,
      children * (readMs(bytes) - memMs(bytes)) + (writeMs(bytes) - memMs(bytes)) - memCreateMs)

  /** This model; kept because `perfbench/` calls it. */
  def toCostModel(): NfsModel = this
}

object NfsModel {
  /** Paper read:write bandwidth ratio (519.8 / 358.9). */
  val ReadWriteRatio: Double = 519.8 / 358.9

  /** No delays at all: the controller runs real Spark work only. */
  val free: NfsModel = NfsModel(Double.PositiveInfinity, Double.PositiveInfinity, 0.0)

  /** The paper's measured environment (§ VI-A) with ~10 GB/s memory. */
  val paperEnvironment: NfsModel = NfsModel(
    readBytesPerMs = 519.8 * 1024 * 1024 / 1000.0,
    writeBytesPerMs = 358.9 * 1024 * 1024 / 1000.0,
    latencyMs = 0.175,
    memBytesPerMs = 10.0 * 1024 * 1024 * 1024 / 1000.0,
  )

  /** Scale bandwidth so one full-dataset scan costs `fullReadSeconds`
    * (the paper's 100 GB at 519.8 MB/s scans in ~192 s; the default 8 s is
    * the proportional equivalent for ~1000× smaller data).
    */
  def scaledTo(datasetBytes: Long, fullReadSeconds: Double = 8.0): NfsModel = {
    val read = datasetBytes / (fullReadSeconds * 1000.0)
    NfsModel(read, read / ReadWriteRatio, 0.175)
  }
}
