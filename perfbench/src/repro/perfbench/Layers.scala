package repro.perfbench

import org.apache.spark.scheduler._
import repro.core._
import repro.graph.LabeledGraph

/** The sequential builder's insert protocol (PR2 by access id, then PR1 as a
  * query on the live index) rebuilt on public `RlcIndex` calls, with plain
  * counters. Every `sampleEvery`-th PR1 probe is timed; the PR1 total is
  * extrapolated from the sample, because timing every call inflates the
  * build by over 40%. `timerOverheadNs` is the cost of the `nanoTime` pair
  * around a sampled call.
  */
final class CountingInserter(index: RlcIndex, sampleEvery: Int, timerOverheadNs: Double)
    extends Inserter {
  require(Integer.bitCount(sampleEvery) == 1, "sampleEvery must be a power of two")
  private val aid  = index.aid
  private val mask = sampleEvery - 1L
  var root = -1
  var attempts, pr2Rejects, pr1Probes, pr1Rejects, added = 0L
  var sampledProbes, sampledNs = 0L

  private def probe(s: Int, t: Int, mr: Long): Boolean = {
    pr1Probes += 1
    if ((pr1Probes & mask) != 0) index.query(s, t, mr)
    else {
      val t0 = System.nanoTime()
      val hit = index.query(s, t, mr)
      sampledNs += System.nanoTime() - t0
      sampledProbes += 1
      hit
    }
  }

  def insertOut(y: Int, mr: Long): Boolean = {
    attempts += 1
    if (aid(root) > aid(y)) { pr2Rejects += 1; false }
    else if (probe(y, root, mr)) { pr1Rejects += 1; false }
    else { index.addOut(y, root, mr); added += 1; true }
  }

  def insertIn(y: Int, mr: Long): Boolean = {
    attempts += 1
    if (aid(root) > aid(y)) { pr2Rejects += 1; false }
    else if (probe(root, y, mr)) { pr1Rejects += 1; false }
    else { index.addIn(y, root, mr); added += 1; true }
  }

  /** Estimated seconds spent in PR1 probes, net of the timer's own cost. */
  def pr1Seconds: Double =
    if (sampledProbes == 0) 0.0
    else (sampledNs.toDouble / sampledProbes - timerOverheadNs) * pr1Probes / 1e9
}

object IndexFacts {

  private def mix64(z0: Long): Long = {
    var z = z0 + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Order-independent checksum over (vertex, direction, hop, MR). */
  def checksum(index: RlcIndex): Long = {
    var sum = 0L
    var v = 0
    while (v < index.numVertices) {
      for (dir <- 0 to 1) {
        val l = if (dir == 0) index.out(v) else index.in(v)
        val vh = mix64(v.toLong * 2 + dir)
        var i = 0
        while (i < l.n) { sum += mix64(mix64(vh ^ l.hops(i)) ^ l.mrs(i)); i += 1 }
      }
      v += 1
    }
    sum
  }

  /** Shape of the index: entry-list length percentiles over all 2·|V|
    * lists, distinct MRs, and the share of entries whose hop is among the
    * top 1% of the access order.
    */
  def shape(index: RlcIndex): Seq[(String, Double)] = {
    val n = index.numVertices
    val lens = new Array[Long](2 * n)
    val mrs = new java.util.HashSet[java.lang.Long]()
    val hubAid = math.max(1, math.ceil(n * 0.01).toInt)
    var hubEntries = 0L
    var v = 0
    while (v < n) {
      for (l <- Seq(index.out(v), index.in(v))) {
        var i = 0
        while (i < l.n) {
          mrs.add(l.mrs(i))
          if (index.aid(l.hops(i)) <= hubAid) hubEntries += 1
          i += 1
        }
      }
      lens(2 * v) = index.out(v).n
      lens(2 * v + 1) = index.in(v).n
      v += 1
    }
    val total = lens.sum
    val Seq(p50, p99, max) = Stats.quantiles(lens, lens.length, 0.5, 0.99, 1.0)
    Seq(
      "index.list_len_p50" -> p50.toDouble,
      "index.list_len_p99" -> p99.toDouble,
      "index.list_len_max" -> max.toDouble,
      "index.distinct_mrs" -> mrs.size.toDouble,
      "index.hub_entry_frac" -> (if (total == 0) 0.0 else hubEntries.toDouble / total),
    )
  }
}

object Graphs {

  /** A uniform permutation of `0 until n` drawn from `seed`; seed 0 gives
    * the identity.
    */
  def permutation(n: Int, seed: Long): Array[Int] = {
    val perm = Array.range(0, n)
    if (seed != 0) {
      val rng = new java.util.SplittableRandom(seed)
      var i = n - 1
      while (i > 0) {
        val j = rng.nextInt(i + 1)
        val t = perm(i); perm(i) = perm(j); perm(j) = t
        i -= 1
      }
    }
    perm
  }

  /** `g` with vertex `v` renamed `perm(v)`. Every adjacency list keeps its
    * edge order, so the result is isomorphic to `g` and an index build does
    * the same work up to ties in the access order.
    */
  def relabel(g: LabeledGraph, perm: Array[Int]): LabeledGraph =
    if (perm.indices.forall(v => perm(v) == v)) g
    else LabeledGraph.fromEdges(g.numVertices, g.numLabels,
      g.edges.map { case (s, l, d) => (perm(s), l, perm(d)) }.toArray)
}

/** Spark listener for the distributed build: job bounds (epoch ms) and task
  * metric totals. Events arrive asynchronously; `awaitQuiet` waits until
  * every started job has ended.
  */
final class SparkProbe extends SparkListener {
  private val jobStart = scala.collection.mutable.LinkedHashMap.empty[Int, Long]
  private val jobEnd   = scala.collection.mutable.LinkedHashMap.empty[Int, Long]
  var tasks, runMs, cpuNs, deserMs, resultBytes = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized { jobStart(e.jobId) = e.time }
  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized { jobEnd(e.jobId) = e.time }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      runMs += m.executorRunTime
      cpuNs += m.executorCpuTime
      deserMs += m.executorDeserializeTime
      resultBytes += m.resultSize
    }
  }

  def awaitQuiet(timeoutMs: Long): Unit = {
    val deadline = System.currentTimeMillis() + timeoutMs
    def quiet = synchronized(jobStart.nonEmpty && jobStart.keySet == jobEnd.keySet)
    while (!quiet) {
      if (System.currentTimeMillis() > deadline)
        throw new IllegalStateException("Spark listener did not see every job end")
      Thread.sleep(10)
    }
  }

  /** (jobId, startMs, endMs) in start order. */
  def jobs: Seq[(Int, Long, Long)] = synchronized {
    jobStart.toSeq.map { case (id, s) => (id, s, jobEnd(id)) }
  }
}
