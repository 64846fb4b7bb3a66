// Package engine is a designated payer package: direct payments are the
// mechanism at this layer and stay silent.
package engine

import "accountant"

func runMechanism(b *accountant.Block) error {
	if err := (accountant.Window{Block: b}).Pay(accountant.Laplace(0.05)); err != nil {
		return err
	}
	return b.PayRange(0, 7, accountant.Laplace(0.05))
}
