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

  /** All `t` reachable from `s` under `L^+` (bounded product BFS);
    * returns an empty array when the budget trips.
    */
  private def closure(g: LabeledGraph, s: Int, mr: Long, maxStates: Int): Array[Int] = {
    val m = LabelSeq.length(mr)
    val lab = LabelSeq.decode(mr)
    val seen = new java.util.BitSet(g.numVertices * m)
    var queue = List.empty[Int]
    val hits  = new scala.collection.mutable.ArrayBuffer[Int]()
    var states = 0

    def push(v: Int, phase: Int): Unit = {
      val st = v * m + phase
      if (!seen.get(st)) {
        seen.set(st); queue ::= st; states += 1
        if (phase == 0) hits += v
      }
    }

    var i = g.outOff(s)
    while (i < g.outOff(s + 1)) {
      if (g.outLabel(i) == lab(0)) push(g.outDst(i), 1 % m)
      i += 1
    }
    while (queue.nonEmpty && states <= maxStates) {
      val st = queue.head; queue = queue.tail
      val v = st / m; val phase = st % m
      var j = g.outOff(v)
      while (j < g.outOff(v + 1)) {
        if (g.outLabel(j) == lab(phase)) push(g.outDst(j), (phase + 1) % m)
        j += 1
      }
    }
    if (states > maxStates) Array.empty else hits.toArray
  }

  /** `n` true queries with constraints of `len` distinct labels. */
  def trueQueries(g: LabeledGraph, n: Int, len: Int, seed: Long,
                  maxStates: Int = 2_000_000): Seq[RlcQuery] = {
    val rng = new SplittableRandom(seed)
    val out = new scala.collection.mutable.ArrayBuffer[RlcQuery](n)
    var attempts = 0
    val maxAttempts = n * 200
    while (out.size < n && attempts < maxAttempts) {
      attempts += 1
      val s  = rng.nextInt(g.numVertices)
      val mr = sampleConstraint(rng, g.numLabels, len)
      val ts = closure(g, s, mr, maxStates)
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
