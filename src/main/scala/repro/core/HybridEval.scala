package repro.core

import repro.baseline.NfaBfs
import repro.graph.LabeledGraph

/** Hybrid evaluation of the paper's extended query Q4 `a^+ ∘ b^+`
  * (Sec. VI-C): an online traversal over the `a^+` part combined with an
  * RLC-index probe at every intermediate vertex for the `b^+` part —
  * "use the RLC index in combination with an online traversal to
  * continuously check whether intermediately visited vertices can satisfy
  * the path constraint".
  */
object HybridEval {

  /** True iff there is a path s ⇝ t labeled `a^+ ∘ b^+`. */
  def concatPlus(g: LabeledGraph, index: RlcIndex, s: Int, t: Int, a: Int, b: Int): Boolean = {
    require(a != b)
    val bMr = LabelSeq.encode(Array(b))
    // every v the a^+ walk reaches: probe the index for v ⇝ t via b^+
    NfaBfs.plusWalk(g, s, Array(a))(v => index.query(v, t, bMr))
  }
}
