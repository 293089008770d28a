package repro.exec

import org.scalatest.funsuite.AnyFunSuite

class NfsModelSpec extends AnyFunSuite {

  test("read and write costs include latency") {
    val m = NfsModel(100, 50, latencyMs = 2)
    assert(m.readMs(1000) == 2 + 10.0)
    assert(m.writeMs(1000) == 2 + 20.0)
  }

  test("zero bytes cost nothing") {
    val m = NfsModel(100, 50, 2)
    assert(m.readMs(0) == 0.0)
    assert(m.writeMs(-5) == 0.0)
  }

  test("scaledTo preserves the paper's read:write ratio") {
    val m = NfsModel.scaledTo(100L << 20)
    assert(math.abs(m.readBytesPerMs / m.writeBytesPerMs - NfsModel.ReadWriteRatio) < 1e-9)
  }

  test("scaledTo makes a full-dataset scan cost the target seconds") {
    val bytes = 50L << 20
    val m = NfsModel.scaledTo(bytes, fullReadSeconds = 8.0)
    assert(math.abs(m.readMs(bytes) - 8000.0) < 1.0)
  }

  test("toCostModel carries the storage parameters") {
    val m = NfsModel(100, 50, 2)
    assert(m.toCostModel() == m)
  }

  private val cm = NfsModel(100, 50, latencyMs = 1, memBytesPerMs = 10000)

  test("read/write/mem costs") {
    assert(cm.readMs(1000) == 1 + 10.0)
    assert(cm.writeMs(1000) == 1 + 20.0)
    assert(cm.memMs(1000) == 0.1)
  }

  test("speedup score counts every child read plus the write") {
    val perChild = cm.readMs(1000) - cm.memMs(1000)
    val t = cm.speedupScore(children = 2, bytes = 1000, memCreateMs = 0.0)
    assert(math.abs(t - (2 * perChild + cm.writeMs(1000) - cm.memMs(1000))) < 1e-9)
  }

  test("childless node still earns the write-side saving") {
    assert(cm.speedupScore(0, 1000, 0.0) == cm.writeMs(1000) - cm.memMs(1000))
  }

  test("speedup score subtracts the create cost and never goes below zero") {
    val free = cm.speedupScore(1, 1000, 0.0)
    assert(math.abs(cm.speedupScore(1, 1000, 5.0) - (free - 5.0)) < 1e-9)
    assert(cm.speedupScore(1, 1000, free + 1.0) == 0.0)
  }

  test("memory reads are free unless a memory bandwidth is given") {
    assert(NfsModel(100, 50, 2).memMs(1L << 30) == 0.0)
    assert(NfsModel.free.readMs(1L << 30) == 0.0 && NfsModel.free.writeMs(1L << 30) == 0.0)
  }

  test("paper environment constants are sane") {
    val p = NfsModel.paperEnvironment
    assert(p.readBytesPerMs > p.writeBytesPerMs)
    assert(p.memBytesPerMs > p.readBytesPerMs)
  }
}
