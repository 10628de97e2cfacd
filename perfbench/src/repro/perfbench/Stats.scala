package repro.perfbench

/** Percentiles over latency samples and medians over repeated measurements. */
object Stats {

  /** Nearest-rank quantile of the first `n` values of `xs`, sorting them in
    * place.
    */
  def quantiles(xs: Array[Long], n: Int, qs: Double*): Seq[Long] = {
    require(n > 0, "no samples")
    java.util.Arrays.sort(xs, 0, n)
    qs.map(q => xs(math.min(n - 1, math.max(0, math.ceil(q * n).toInt - 1))))
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    val m = s.size / 2
    if (s.size % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  /** Mean cost in ns of one back-to-back pair of `System.nanoTime` calls,
    * subtracted from per-call latencies so they report the call alone.
    */
  def timerOverheadNs(): Double = {
    val n = 2000000
    var sum = 0L
    var i = 0
    while (i < n) {
      val t0 = System.nanoTime()
      sum += System.nanoTime() - t0
      i += 1
    }
    sum.toDouble / n
  }

  /** Time `body` `reps` times and return the median in seconds. */
  def medianSeconds(reps: Int)(body: => Unit): Double =
    median((1 to reps).map { _ =>
      val t0 = System.nanoTime(); body; (System.nanoTime() - t0) / 1e9
    })
}

/** Growable sample buffer of non-negative longs. */
final class Samples(initial: Int = 1 << 16) {
  var xs = new Array[Long](initial)
  var n = 0
  def add(x: Long): Unit = {
    if (n == xs.length) xs = java.util.Arrays.copyOf(xs, n * 2)
    xs(n) = x; n += 1
  }
  def quantiles(qs: Double*): Seq[Long] = Stats.quantiles(xs, n, qs: _*)
}
