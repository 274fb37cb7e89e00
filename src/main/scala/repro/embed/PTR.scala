package repro.embed

/** Path-table representation (PTR, §5.3).
  *
  * Tokens are the leaves of a balanced binary tree of height
  * h = ⌈log₂|T|⌉, edges to a left child marked 1 and to a right child 0.
  * A token's path is therefore the complement of its id's h-bit binary
  * form (token 0 is the leftmost leaf). The path table doubles the path
  * with its complement (Eq. 16) and a set's representation sums the path
  * table rows of its tokens (Eq. 17), giving a 2h-dimensional vector.
  *
  * Reproduces the paper's worked example (Table 1): with |T| = 4,
  * PT(A=0) = [1,1,0,0], PT(B=1) = [1,0,0,1], and
  * Rep({A,B,C}) = [2,2,1,1].
  */
final class PathTable(val nTokens: Int) extends Serializable {
  require(nTokens >= 1, "empty token universe")

  /** Tree height h = ⌈log₂|T|⌉ (at least 1). */
  val h: Int = math.max(1, 32 - Integer.numberOfLeadingZeros(math.max(1, nTokens - 1)))

  /** Full-table dimensionality 2h. */
  def dim: Int = 2 * h

  /** PT[t, i] per Eq. 16; i ∈ [0, 2h). */
  def entry(t: Int, i: Int): Int = {
    require(t >= 0 && t < nTokens, s"token $t outside universe of $nTokens")
    if (i < h) 1 - ((t >>> (h - 1 - i)) & 1)
    else (t >>> (2 * h - 1 - i)) & 1
  }

  /** Rep(S) over the full table (Eq. 17). Multiset occurrences sum. */
  def rep(tokens: Array[Int]): Array[Double] = {
    val out = new Array[Double](dim)
    var j = 0
    while (j < tokens.length) {
      val t = tokens(j)
      var i = 0
      while (i < h) {
        val bit = 1 - ((t >>> (h - 1 - i)) & 1)
        out(i) += bit
        out(h + i) += 1 - bit
        i += 1
      }
      j += 1
    }
    out
  }

  /** PTR-half: the first-half-only variant compared in §7.3. */
  def repHalf(tokens: Array[Int]): Array[Double] = rep(tokens).take(h)
}

/** A set-to-vector encoder; inputs are sorted-distinct token arrays. */
trait Embedder extends Serializable {
  def name: String
  def dim: Int
  def embed(tokens: Array[Int]): Array[Double]
  def embedAll(db: collection.IndexedSeq[Array[Int]]): Array[Array[Double]] =
    Array.tabulate(db.length)(i => embed(db(i)))
}

/** PTR as an [[Embedder]]. */
final class PTREmbedder(nTokens: Int) extends Embedder {
  val table = new PathTable(nTokens)
  def name = "PTR"
  def dim: Int = table.dim
  def embed(tokens: Array[Int]): Array[Double] = table.rep(tokens)
}

/** PTR-half as an [[Embedder]] (§7.3 ablation). */
final class PTRHalfEmbedder(nTokens: Int) extends Embedder {
  val table = new PathTable(nTokens)
  def name = "PTR-half"
  def dim: Int = table.h
  def embed(tokens: Array[Int]): Array[Double] = table.repHalf(tokens)
}
