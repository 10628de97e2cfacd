package repro.baseline

import repro.graph.LabeledGraph

/** Online traversal baselines of the paper (Sec. VI-a): NFA-guided BFS and
  * bidirectional BFS over the product of the graph and the query automaton,
  * one search whose backward side BFS never expands; also the `L^+` walk
  * that query generation and the hybrid Q4 share.
  *
  * State space is `(vertex, automaton state)` packed as the Int
  * `v * numStates + q` (a larger product is rejected, not wrapped), visited
  * sets are flat bitsets, so a query costs O(|V| * |Q| + |E| * |Q|)
  * worst case. An optional edge budget bounds a query's work.
  */
object NfaBfs {

  /** Depth-first walk of the product of `g` with `lab^+` (states
    * `v * |lab| + phase`) from the successors of `s`: calls `visit(v)` the
    * first time it reaches `(v, phase 0)`, i.e. once per `v` with `s ⇝ v`
    * under `lab^+`. Returns true when it stopped early: `visit` returned
    * true, or more than `maxStates` states were reached.
    */
  def plusWalk(g: LabeledGraph, s: Int, lab: Array[Int], maxStates: Int = Int.MaxValue)
              (visit: Int => Boolean): Boolean = {
    val m = lab.length
    require(g.numVertices.toLong * m <= Int.MaxValue, "product state space too large")
    val seen  = new java.util.BitSet(g.numVertices * m)
    var stack = new Array[Int](64) // (vertex, phase) pairs
    var top   = 0
    var states = 0
    var v = s // expanded at phase 0 but never marked: the empty path is no match
    var phase = 0
    var more = true
    while (more) {
      val want   = lab(phase)
      val nphase = if (phase + 1 == m) 0 else phase + 1
      var i = g.outOff(v)
      val end = g.outOff(v + 1)
      while (i < end) {
        if (g.outLabel(i) == want) {
          val w   = g.outDst(i)
          val nst = w * m + nphase
          if (!seen.get(nst)) {
            seen.set(nst); states += 1
            if (states > maxStates || (nphase == 0 && visit(w))) return true
            if (top == stack.length) stack = java.util.Arrays.copyOf(stack, top * 2)
            stack(top) = w; stack(top + 1) = nphase; top += 2
          }
        }
        i += 1
      }
      more = top > 0
      if (more) { top -= 2; v = stack(top); phase = stack(top + 1) }
    }
    false
  }

  /** Forward NFA-guided BFS (SysB): [[search]] with the backward side frozen.
    * `budget` caps the edges scanned, checked per expanded state (negative:
    * no cap); None when it runs out, which the bench treats as a timeout.
    */
  def bfs(g: LabeledGraph, s: Int, t: Int, nfa: Nfa, budget: Long = -1L): Option[Boolean] =
    search(g, s, t, nfa, budget, bidirectional = false)

  /** Bidirectional NFA-guided BFS (SysC); `budget` as for [[bfs]]. */
  def bibfs(g: LabeledGraph, s: Int, t: Int, nfa: Nfa, budget: Long = -1L): Option[Boolean] =
    search(g, s, t, nfa, budget, bidirectional = true)

  /** Level-synchronous search of the product graph from both ends: forward
    * by the DFA over out-edges from `(s, start)`, backward by the reversed
    * (nondeterministic) automaton over in-edges from every `(t, accepting)`.
    * Each round expands the smaller frontier, or always the forward one when
    * not `bidirectional`; true as soon as a side reaches the other's states.
    */
  private def search(g: LabeledGraph, s: Int, t: Int, nfa: Nfa, budget: Long,
                     bidirectional: Boolean): Option[Boolean] = {
    val q = nfa.numStates
    require(g.numVertices.toLong * q <= Int.MaxValue, "product state space too large")
    val seen = new Array[Long](((g.numVertices.toLong * q + 31) >>> 5).toInt)
    val fwd  = new Side(seen, q, 1L); val bwd = new Side(seen, q, 2L)
    fwd.reach(s, nfa.start); fwd.advance()
    if (nfa.acceptStates.exists(a => bwd.reach(t, a))) return Some(true)
    bwd.advance()
    var steps = 0L
    while (fwd.n > 0 && bwd.n > 0) {
      val forward = !bidirectional || fwd.n <= bwd.n
      val side = if (forward) fwd else bwd
      val off  = if (forward) g.outOff else g.inOff
      var j = 0
      while (j < side.n) {
        val v = side.cur(j); val a = side.cur(j + 1)
        var i = off(v); val end = off(v + 1)
        steps += end - i
        if (budget >= 0 && steps > budget) return None
        if (forward) {
          val row = nfa.trans(a)
          while (i < end) {
            val na = row(g.outLabel(i))
            if (na >= 0 && fwd.reach(g.outDst(i), na)) return Some(true)
            i += 1
          }
        } else {
          val row = nfa.reversed(a)
          while (i < end) {
            val ps = row(g.inLabel(i)); var k = 0
            while (k < ps.length) { if (bwd.reach(g.inSrc(i), ps(k))) return Some(true); k += 1 }
            i += 1
          }
        }
        j += 2
      }
      side.advance()
    }
    Some(false)
  }

  /** One side of [[search]]: its frontier, `(vertex, state)` pairs in
    * `cur(0 until n)`, the next one it builds, and its `bit` (1 forward, 2
    * backward). State `st = v * q + a` owns bits `2 * (st % 32)` and the one
    * above in word `st / 32` of `seen`, which both sides share, so one load
    * tests the meet and this side's visit.
    */
  private final class Side(seen: Array[Long], q: Int, bit: Long) {
    var cur = new Array[Int](16); var n = 0
    private var next = new Array[Int](16); private var m = 0

    /** True if the other side visited `(v, a)`; else queue it if this side had not. */
    def reach(v: Int, a: Int): Boolean = {
      val st = v * q + a
      val w  = seen(st >>> 5) >>> (st << 1) // a Long shift reads its low 6 bits
      if ((w & (bit ^ 3L)) != 0) return true
      if ((w & bit) == 0) {
        seen(st >>> 5) |= bit << (st << 1)
        if (m == next.length) next = java.util.Arrays.copyOf(next, 2 * m)
        next(m) = v; next(m + 1) = a; m += 2
      }
      false
    }

    def advance(): Unit = { val c = cur; cur = next; n = m; next = c; m = 0 } // ends a round
  }
}
