package repro.embed

/** Binary Encoding baseline (§7.3): each set receives the binary code of a
  * unique ordinal — a valid but characteristics-blind representation (the
  * tokens a set contains play no role), so it cannot exhibit the Set
  * Separation-Friendly Property. Included to reproduce Fig. 8.
  *
  * The ordinal is the set's position in the database; `embed` therefore
  * requires ids to be registered up front via the factory.
  */
final class BinaryEncodingEmbedder private (codes: Map[IndexedSeq[Int], Int],
                                            val dim: Int) extends Embedder {
  def name = "BinaryEnc"
  def embed(tokens: Array[Int]): Array[Double] = {
    val ordinal = codes.getOrElse(tokens.toIndexedSeq,
      throw new NoSuchElementException("set not registered with BinaryEncoding"))
    Array.tabulate(dim)(i => ((ordinal >>> (dim - 1 - i)) & 1).toDouble)
  }
}

object BinaryEncodingEmbedder {
  /** Build over a database; `dim` defaults to ⌈log₂|D|⌉. */
  def apply(db: collection.IndexedSeq[Array[Int]], dimOverride: Int = -1): BinaryEncodingEmbedder = {
    val d =
      if (dimOverride > 0) dimOverride
      else math.max(1, 32 - Integer.numberOfLeadingZeros(math.max(1, db.length - 1)))
    val codes = db.zipWithIndex.map { case (s, i) => (s.toIndexedSeq, i) }.toMap
    new BinaryEncodingEmbedder(codes, d)
  }
}
