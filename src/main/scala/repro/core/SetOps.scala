package repro.core

/** Set algebra over the canonical in-memory set representation: a sorted
  * array of distinct non-negative token ids.
  *
  * Every similarity in the paper (§2, §3.2) reduces to the intersection
  * size of two such arrays, so this module keeps the merge-based
  * intersection in one place and derives Jaccard / Dice / Cosine /
  * overlap from it.
  */
object SetOps {

  /** Canonicalize an arbitrary token collection into sorted-distinct form. */
  def canon(tokens: Iterable[Int]): Array[Int] = {
    val a = tokens.toArray.distinct
    java.util.Arrays.sort(a)
    a
  }

  /** Throws `IllegalArgumentException` unless `tokens` is canonical:
    * sorted, distinct and non-negative. `what` names the caller.
    */
  def requireCanonical(tokens: Array[Int], what: String): Unit = {
    var i = 0
    while (i < tokens.length && tokens(i) >= 0 && (i == 0 || tokens(i - 1) < tokens(i))) i += 1
    if (i < tokens.length) throw new IllegalArgumentException(
      s"$what needs sorted distinct non-negative tokens, got ${tokens.mkString("[", ", ", "]")}")
  }

  /** Throws `IllegalArgumentException` unless 0 < `delta` ≤ 1, the range
    * thresholds every engine accepts (NaN is rejected). `what` names the
    * caller.
    */
  def requireDelta(delta: Double, what: String): Unit =
    if (!(delta > 0.0 && delta <= 1.0))
      throw new IllegalArgumentException(s"$what needs 0 < delta <= 1, got $delta")

  /** |a ∩ b| by linear merge; both inputs must be sorted-distinct. */
  def intersectSize(a: Array[Int], b: Array[Int]): Int = intersectSize(a, b, 0, b.length)

  /** |a ∩ b[from, until)| by linear merge — `b` may be one set stored
    * inside a larger token array; both runs must be sorted-distinct.
    */
  def intersectSize(a: Array[Int], b: Array[Int], from: Int, until: Int): Int = {
    var i = 0; var j = from; var c = 0
    while (i < a.length && j < until) {
      val x = a(i); val y = b(j)
      if (x == y) { c += 1; i += 1; j += 1 }
      else if (x < y) i += 1
      else j += 1
    }
    c
  }

  /** Jaccard similarity |a∩b| / |a∪b|; empty-vs-empty defined as 1.0. */
  def jaccard(a: Array[Int], b: Array[Int]): Double = Jaccard.sim(a, b)

  /** Dice coefficient 2|a∩b| / (|a|+|b|). */
  def dice(a: Array[Int], b: Array[Int]): Double = Dice.sim(a, b)

  /** Cosine similarity |a∩b| / sqrt(|a||b|). */
  def cosine(a: Array[Int], b: Array[Int]): Double = Cosine.sim(a, b)

  /** Similarity measures satisfying the TGM Applicability Property (Thm 3.1).
    *
    * Each is a function of the overlap and the two sizes only:
    * `simFromOverlap(i, q, r)` is the similarity of sets of sizes q and r
    * sharing i tokens, non-decreasing in i, and `sim` applies it to a pair.
    *
    * `ubFromOverlap(m, q)` is Sim(Q, R) for |R| = m matched query tokens out
    * of |Q| = q — the tight group upper bound of Eq. 2 generalized per §3.2
    * (R itself is the best possible set). It is computed as
    * `simFromOverlap(m, q, m)`, so a member made of exactly the matched
    * tokens reaches its group's bound bit for bit (the closed form
    * sqrt(m/q) of Cosine rounds one ulp lower for, e.g., q = 3, m = 1).
    *
    * `sizeUb(q, r)` bounds the similarity of any set of size r to a query of
    * size q — the length filter (Bayardo et al., WWW 2007). It rises in r up
    * to r = q and falls after, in floating point too: each side is one
    * rounded quotient that moves monotonically in r (for Cosine, a quotient
    * whose neighbouring values differ by far more than its rounding error).
    */
  sealed abstract class Measure(val name: String) {
    def simFromOverlap(inter: Int, qSize: Int, rSize: Int): Double

    final def ubFromOverlap(matched: Int, qSize: Int): Double =
      simFromOverlap(matched, qSize, matched)

    final def sim(a: Array[Int], b: Array[Int]): Double =
      simFromOverlap(intersectSize(a, b), a.length, b.length)
    final def sizeUb(qSize: Int, rSize: Int): Double =
      simFromOverlap(math.min(qSize, rSize), qSize, rSize)
  }

  case object Jaccard extends Measure("jaccard") {
    def simFromOverlap(inter: Int, qSize: Int, rSize: Int): Double =
      if (qSize == 0 && rSize == 0) 1.0 else inter.toDouble / (qSize + rSize - inter)
  }

  case object Cosine extends Measure("cosine") {
    def simFromOverlap(inter: Int, qSize: Int, rSize: Int): Double =
      if (qSize == 0 && rSize == 0) 1.0
      else if (qSize == 0 || rSize == 0) 0.0
      else inter / math.sqrt(qSize.toDouble * rSize)
  }

  case object Dice extends Measure("dice") {
    def simFromOverlap(inter: Int, qSize: Int, rSize: Int): Double =
      if (qSize == 0 && rSize == 0) 1.0 else 2.0 * inter / (qSize + rSize)
  }
}
