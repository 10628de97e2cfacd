package repro.baseline

import repro.core.LabelSeq

/** Small deterministic automata for the two query classes the paper
  * evaluates (Sec. III-B builds its online baselines from minimized NFAs):
  *
  *  - `kleenePlus(L)`: accepts exactly `L^h, h >= 1` — a dedicated start
  *    state plus one state per phase of `L`, so the empty path is rejected
  *    without special-casing;
  *  - `concatPlus(a, b)`: accepts `a^+ ∘ b^+` (the paper's extended query Q4).
  *
  * Both are DFAs going forward; `reversed` transitions (used by the
  * backward half of BiBFS) are nondeterministic and exposed as arrays.
  */
final class Nfa(
    val numStates: Int,
    val start: Int,
    val accept: Array[Boolean],
    /** trans(q)(l) = next state, or -1 if the label kills the run. */
    val trans: Array[Array[Int]],
) extends Serializable {

  /** reversed(q)(l) = states p with trans(p)(l) == q. */
  val reversed: Array[Array[Array[Int]]] = {
    val r = Array.fill(numStates, trans(0).length)(Array.emptyIntArray)
    for (p <- 0 until numStates; l <- trans(p).indices) {
      val q = trans(p)(l)
      if (q >= 0) r(q)(l) :+= p
    }
    r
  }

  def acceptStates: Seq[Int] = (0 until numStates).filter(accept)
}

object Nfa {

  /** Automaton for `L^+` with `L` given as a packed label sequence.
    * States `0..m-1` are phases (state = labels consumed mod m); state `m`
    * is the start. Accepting exactly at phase 0 after >= 1 edge.
    */
  def kleenePlus(code: Long, numLabels: Int): Nfa = {
    val m = LabelSeq.length(code)
    require(m >= 1)
    val trans = Array.fill(m + 1, numLabels)(-1)
    var i = 0
    while (i < m) { trans(i)(LabelSeq.labelAt(code, i)) = (i + 1) % m; i += 1 }
    trans(m)(LabelSeq.labelAt(code, 0)) = 1 % m
    val accept = Array.tabulate(m + 1)(_ == 0)
    new Nfa(m + 1, m, accept, trans)
  }

  /** Automaton for `a^+ ∘ b^+` (requires a != b). */
  def concatPlus(a: Int, b: Int, numLabels: Int): Nfa = {
    require(a != b, "a+ ∘ b+ with a == b collapses to a^{>=2}, unsupported")
    val trans = Array.fill(3, numLabels)(-1)
    trans(0)(a) = 1
    trans(1)(a) = 1
    trans(1)(b) = 2
    trans(2)(b) = 2
    new Nfa(3, 0, Array(false, false, true), trans)
  }
}
