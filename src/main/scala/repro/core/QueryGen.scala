package repro.core

import java.util.SplittableRandom
import repro.baseline.{Nfa, NfaBfs}
import repro.graph.LabeledGraph

/** Query-workload generation (paper Sec. VI-c): per graph, a true-query set
  * and a false-query set of RLC queries `(s, t, (l_1 ∘ ... ∘ l_len)^+)` with
  * distinct labels (hence primitive constraints), each labeled by a
  * bidirectional product-graph search.
  *
  * The paper draws (s, t, L) uniformly and keeps drawing until both sets
  * fill. On our scaled-down graphs uniformly drawn *true* queries are too
  * rare for that to terminate quickly, so true queries are drawn by sampling
  * a source and a constraint uniformly and then sampling a target uniformly
  * from the (bounded) forward closure under the constraint — the same
  * distribution of satisfiable triples the paper's rejection sampling
  * converges to, reached directly. False queries use plain rejection
  * sampling, as in the paper.
  */
object QueryGen {

  final case class RlcQuery(s: Int, t: Int, mr: Long, answer: Boolean)

  /** Sample `len` distinct labels as a packed sequence. */
  private def sampleConstraint(rng: SplittableRandom, numLabels: Int, len: Int): Long = {
    require(len <= numLabels, s"need $len distinct labels, alphabet has $numLabels")
    val picked = new Array[Int](len)
    var i = 0
    while (i < len) {
      var l = rng.nextInt(numLabels)
      while (picked.take(i).contains(l)) l = rng.nextInt(numLabels)
      picked(i) = l; i += 1
    }
    LabelSeq.encode(picked)
  }

  private val MaxClosureStates = 2_000_000

  /** All `t` reachable from `s` under `L^+`; empty when the walk passes
    * `MaxClosureStates` product states (`trueQueries` then skips the draw).
    */
  private def closure(g: LabeledGraph, s: Int, mr: Long): Array[Int] = {
    val hits = Array.newBuilder[Int]
    if (NfaBfs.plusWalk(g, s, LabelSeq.decode(mr), MaxClosureStates) { v => hits += v; false })
      Array.empty
    else hits.result()
  }

  /** `n` true queries with constraints of `len` distinct labels. */
  def trueQueries(g: LabeledGraph, n: Int, len: Int, seed: Long): Seq[RlcQuery] = {
    val rng = new SplittableRandom(seed)
    val out = new scala.collection.mutable.ArrayBuffer[RlcQuery](n)
    var attempts = 0
    val maxAttempts = n * 200
    while (out.size < n && attempts < maxAttempts) {
      attempts += 1
      val s  = rng.nextInt(g.numVertices)
      val mr = sampleConstraint(rng, g.numLabels, len)
      val ts = closure(g, s, mr)
      if (ts.nonEmpty) {
        var picks = math.min(4, math.min(ts.length, n - out.size))
        while (picks > 0) {
          out += RlcQuery(s, ts(rng.nextInt(ts.length)), mr, answer = true)
          picks -= 1
        }
      }
    }
    out.toSeq
  }

  /** `n` false queries by uniform rejection sampling labeled with BiBFS;
    * fewer if `n * 200` draws do not find `n` (e.g. when every triple is true).
    */
  def falseQueries(g: LabeledGraph, n: Int, len: Int, seed: Long): Seq[RlcQuery] = {
    val rng = new SplittableRandom(seed)
    val out = new scala.collection.mutable.ArrayBuffer[RlcQuery](n)
    var attempts = 0
    val maxAttempts = n * 200
    while (out.size < n && attempts < maxAttempts) {
      attempts += 1
      val s  = rng.nextInt(g.numVertices)
      val t  = rng.nextInt(g.numVertices)
      val mr = sampleConstraint(rng, g.numLabels, len)
      if (NfaBfs.bibfs(g, s, t, Nfa.kleenePlus(mr, g.numLabels)).contains(false))
        out += RlcQuery(s, t, mr, answer = false)
    }
    out.toSeq
  }

  /** A full workload: `n` true + `n` false queries. */
  def workload(g: LabeledGraph, n: Int, len: Int, seed: Long): (Seq[RlcQuery], Seq[RlcQuery]) =
    (trueQueries(g, n, len, seed), falseQueries(g, n, len, seed + 1))
}
