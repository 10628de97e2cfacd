package repro.baseline

import repro.graph.LabeledGraph

/** Online traversal baselines of the paper (Sec. VI-a): NFA-guided BFS and
  * bidirectional BFS over the product of the graph and the query automaton;
  * also the `L^+` walk that query generation and the hybrid Q4 share.
  *
  * State space is `(vertex, automaton state)` packed as the Int
  * `v * numStates + q` (a larger product is rejected, not wrapped), visited
  * sets are flat bitsets, so a query costs O(|V| * |Q| + |E| * |Q|)
  * worst case. An optional step budget lets benches enforce the paper's
  * per-query timeouts.
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

  /** Forward NFA-guided BFS: does an accepting path s -> t exist?
    *
    * @param budget max product-state expansions before giving up; a negative
    *               budget means unlimited. Returns None on budget exhaustion
    *               (the bench treats that as a timeout), Some(answer) else.
    */
  def bfs(g: LabeledGraph, s: Int, t: Int, nfa: Nfa, budget: Long = -1L): Option[Boolean] = {
    val q       = nfa.numStates
    require(g.numVertices.toLong * q <= Int.MaxValue, "product state space too large")
    val visited = new java.util.BitSet(g.numVertices * q)
    val queue   = new java.util.ArrayDeque[Integer]()
    var steps   = 0L

    def push(state: Int): Unit =
      if (!visited.get(state)) { visited.set(state); queue.add(state) }

    push(s * q + nfa.start)
    while (!queue.isEmpty) {
      val st = queue.poll().intValue()
      val v  = st / q
      val a  = st % q
      if (v == t && nfa.accept(a)) return Some(true)
      var i = g.outOff(v)
      val end = g.outOff(v + 1)
      while (i < end) {
        val nxt = nfa.trans(a)(g.outLabel(i))
        if (nxt >= 0) push(g.outDst(i) * q + nxt)
        steps += 1
        if (budget >= 0 && steps > budget) return None
        i += 1
      }
    }
    Some(false)
  }

  /** Bidirectional NFA-guided BFS. The forward side runs the DFA; the
    * backward side runs the reversed (nondeterministic) automaton from all
    * accepting states at `t`. The smaller frontier expands each round; the
    * answer is true as soon as the two visited sets share a product state.
    */
  def bibfs(g: LabeledGraph, s: Int, t: Int, nfa: Nfa, budget: Long = -1L): Option[Boolean] = {
    val q  = nfa.numStates
    require(g.numVertices.toLong * q <= Int.MaxValue, "product state space too large")
    val vf = new java.util.BitSet(g.numVertices * q)
    val vb = new java.util.BitSet(g.numVertices * q)
    var frontF = List(s * q + nfa.start)
    var frontB = nfa.acceptStates.map(a => t * q + a).toList
    frontF.foreach(vf.set)
    frontB.foreach(vb.set)
    if (frontF.exists(vb.get) || frontB.exists(vf.get)) return Some(true)
    var steps = 0L

    while (frontF.nonEmpty && frontB.nonEmpty) {
      if (frontF.size <= frontB.size) {
        var next = List.empty[Int]
        for (st <- frontF) {
          val v = st / q; val a = st % q
          var i = g.outOff(v); val end = g.outOff(v + 1)
          while (i < end) {
            val na = nfa.trans(a)(g.outLabel(i))
            if (na >= 0) {
              val ns = g.outDst(i) * q + na
              if (vb.get(ns)) return Some(true)
              if (!vf.get(ns)) { vf.set(ns); next ::= ns }
            }
            steps += 1
            if (budget >= 0 && steps > budget) return None
            i += 1
          }
        }
        frontF = next
      } else {
        var next = List.empty[Int]
        for (st <- frontB) {
          val v = st / q; val a = st % q
          var i = g.inOff(v); val end = g.inOff(v + 1)
          while (i < end) {
            var preds = nfa.reversed(a)(g.inLabel(i))
            while (preds.nonEmpty) {
              val ns = g.inSrc(i) * q + preds.head
              preds = preds.tail
              if (vf.get(ns)) return Some(true)
              if (!vb.get(ns)) { vb.set(ns); next ::= ns }
            }
            steps += 1
            if (budget >= 0 && steps > budget) return None
            i += 1
          }
        }
        frontB = next
      }
    }
    Some(false)
  }
}
