package perfbench

import scala.collection.mutable

/** Order statistics and the metric table one run prints and returns. */
object Stats {

  /** Linear-interpolated quantile of `xs` at `q` in [0, 1]. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s = xs.sorted
    val pos = q * (s.size - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** "median [q1, q3] n=k" for a report line. */
  def describe(xs: Seq[Double]): String =
    f"median ${median(xs)}%.4f [q1 ${quantile(xs, 0.25)}%.4f, q3 ${quantile(xs, 0.75)}%.4f] n=${xs.size}"
}

/** Metrics of one run, in insertion order, each with its unit. */
final class Metrics {
  private val values = mutable.LinkedHashMap.empty[String, (Double, String)]

  def put(name: String, value: Double, unit: String): Unit = {
    require(!values.contains(name), s"metric $name reported twice")
    values(name) = (value, unit)
  }

  def names: Seq[String] = values.keys.toSeq
  def get(name: String): Option[(Double, String)] = values.get(name)

  def toJson: String = values.map { case (k, (v, u)) =>
    val num = if (v.isNaN || v.isInfinite) "null" else v.toString
    s""""$k": {"value": $num, "unit": "$u"}"""
  }.mkString("{", ", ", "}")

  def lines: Seq[String] = values.toSeq.map { case (k, (v, u)) => f"  $k%-32s $v%14.4f $u" }
}
