package repro.io

/** Storage cost model for the disk-based evaluation (§7.6, Fig. 13).
  *
  * The paper runs on a 5400-RPM HDD with a measured ~80 MB/s transfer rate
  * and argues entirely in terms of access *patterns*: LES³ reads each
  * candidate group as one contiguous block, brute force performs a single
  * sequential scan, while DualTrans / InvIdx repeatedly fetch scattered
  * R-tree nodes / posting lists / candidate sets with random access. A
  * deterministic cost model exposes exactly that distinction without the
  * hardware (see DESIGN.md, Substitutions); methods return milliseconds.
  */
trait IOModel extends Serializable {
  /** One random read of `bytes` (seek + rotational delay + transfer). */
  def randomAccess(bytes: Long): Double
  /** One sequential scan of `bytes` (single positioning + transfer). */
  def sequentialScan(bytes: Long): Double
  /** Modeled on-disk payload of `sets` stored sets holding `tokens` tokens
    * in all. Models with a `dataByteScale` > 1 inflate this (and only this —
    * index structures are never scaled), so a laptop-sized database can exercise
    * the paper's transfer-dominated regime: whether LES³'s contiguous
    * group reads beat a sequential scan depends on data volume relative
    * to seek cost, and the paper's datasets are in the tens of GBs.
    */
  def dataBytes(tokens: Long, sets: Long): Long = IOModel.setBytes(tokens, sets)
  /** Modeled footprint of `raw` bytes of *per-set-proportional* index
    * payload (posting lists, R-tree leaf entries). These grow linearly in
    * |D|, so a model that scales the data volume to the paper's regime
    * must scale them identically; fixed-size structures (the TGM bitmap
    * rows, tree fan-out metadata) are never scaled.
    */
  def indexBytes(raw: Long): Long = raw
}

object IOModel {

  /** Memory-resident setting: storage access is free. */
  case object InMemory extends IOModel {
    def randomAccess(bytes: Long): Double = 0.0
    def sequentialScan(bytes: Long): Double = 0.0
  }

  /** 5400-RPM HDD: ~5.5 ms average seek + ~5.5 ms average rotational delay
    * (half a revolution at 5400 RPM) per random positioning, 80 MB/s
    * transfer — the paper's measured data rate.
    *
    * @param dataByteScale multiplier applied to set payloads only (see
    *                      [[IOModel.dataBytes]])
    */
  final case class Hdd(seekMs: Double = 5.5, rotationalMs: Double = 5.5,
                       mbPerSec: Double = 80.0,
                       dataByteScale: Double = 1.0) extends IOModel {
    private val msPerByte = 1000.0 / (mbPerSec * 1024 * 1024)
    def randomAccess(bytes: Long): Double = seekMs + rotationalMs + bytes * msPerByte
    def sequentialScan(bytes: Long): Double = seekMs + rotationalMs + bytes * msPerByte
    override def dataBytes(tokens: Long, sets: Long): Long =
      (IOModel.setBytes(tokens, sets) * dataByteScale).toLong
    override def indexBytes(raw: Long): Long = (raw * dataByteScale).toLong
  }

  /** Raw footprint of `sets` sets holding `tokens` tokens in all: 4 bytes
    * per token + an 8-byte header per set.
    */
  def setBytes(tokens: Long, sets: Long): Long = 4L * tokens + 8L * sets
}
